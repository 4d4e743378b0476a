"""Binary model container: magic "GTLM", format version, then length-prefixed
named sections. Tensors serialize as little-endian floats, row-major, behind a
small shape header; everything round-trips bit-exactly.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import BundleError

MAGIC = b"GTLM"
VERSION = 1

_DTYPES = {4: np.dtype("<f4"), 8: np.dtype("<f8")}


def _u16(v: int) -> bytes:
    return int(v).to_bytes(2, "little")


def _u64(v: int) -> bytes:
    return int(v).to_bytes(8, "little")


def write_sections(path, model_type: str, sections: list[tuple[str, bytes]]):
    all_sections = [("model_type", model_type.encode("utf-8"))] + sections
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(_u16(VERSION))
        f.write(_u16(len(all_sections)))
        for name, payload in all_sections:
            nb = name.encode("utf-8")
            f.write(_u16(len(nb)))
            f.write(nb)
            f.write(_u64(len(payload)))
            f.write(payload)


def _read_exact(f, n: int, what: str, end: int) -> bytes:
    """n bytes from f, checked against the `end` of the file before reading,
    so a corrupt length cannot ask for more memory than the file holds."""
    if n > end - f.tell():
        raise BundleError(f"truncated bundle while reading {what}")
    return f.read(n)


def _decode_name(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise BundleError(f"corrupt {what}: {e}") from e


def read_sections(path) -> tuple[str, dict[str, bytes]]:
    with open(path, "rb") as f:
        end = os.fstat(f.fileno()).st_size
        if _read_exact(f, 4, "magic", end) != MAGIC:
            raise BundleError("not a model bundle (bad magic)")
        version = int.from_bytes(_read_exact(f, 2, "version", end), "little")
        if version != VERSION:
            raise BundleError(f"unsupported bundle version {version}")
        count = int.from_bytes(_read_exact(f, 2, "section count", end), "little")
        sections: dict[str, bytes] = {}
        for _ in range(count):
            name_len = int.from_bytes(_read_exact(f, 2, "section name length", end), "little")
            name = _decode_name(_read_exact(f, name_len, "section name", end), "section name")
            size = int.from_bytes(_read_exact(f, 8, f"length of {name}", end), "little")
            sections[name] = _read_exact(f, size, f"section {name}", end)
    if "model_type" not in sections:
        raise BundleError("bundle lacks a model_type section")
    return _decode_name(sections.pop("model_type"), "model_type section"), sections


def encode_tensor(a: np.ndarray) -> bytes:
    if a.dtype.itemsize not in _DTYPES:
        raise ValueError(f"unsupported tensor dtype {a.dtype}")
    target = _DTYPES[a.dtype.itemsize]
    header = bytes([a.dtype.itemsize, a.ndim]) + b"".join(_u64(d) for d in a.shape)
    return header + np.ascontiguousarray(a, dtype=target).tobytes()


def decode_tensor(payload: bytes, what: str = "tensor") -> np.ndarray:
    if len(payload) < 2:
        raise BundleError(f"truncated {what} header")
    size, ndim = payload[0], payload[1]
    if size not in _DTYPES:
        raise BundleError(f"{what}: unknown dtype size {size}")
    off = 2 + 8 * ndim
    if len(payload) < off:
        raise BundleError(f"truncated {what} shape header")
    shape = tuple(int.from_bytes(payload[2 + 8 * i:10 + 8 * i], "little") for i in range(ndim))
    n = 1
    for d in shape:
        n *= d
    if len(payload) != off + n * size:
        raise BundleError(f"{what}: payload length does not match shape {shape}")
    try:
        return np.frombuffer(payload, _DTYPES[size], offset=off).reshape(shape).copy()
    except ValueError as e:                   # more axes than numpy supports
        raise BundleError(f"{what}: {e}") from e


def encode_json(obj) -> bytes:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True).encode("utf-8")


def decode_json(payload: bytes, what: str = "section"):
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise BundleError(f"corrupt {what}: {e}") from e
