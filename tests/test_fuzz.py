"""The exit-code contract under mutated inputs: whatever Hypothesis does to
a prepared file that `train` reads, `cli.main` exits 0, 1 or 2 and prints no
traceback. A traceback (exit 3) should mean a real bug."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tweetgeo.cli import main
from tweetgeo.synth import SynthSpec, write_corpus

CNN_FLAGS = ["--embed-dim", "4", "--windows", "2", "--filters", "2", "--batch-size", "64",
             "--max-epochs", "1", "--max-len-text", "6", "--max-len-user-description", "4",
             "--max-len-profile-location", "2", "--max-len-user-name", "2"]
MODELS = {"cnn": CNN_FLAGS, "stacking+": ["--min-count", "1"]}
# what a JSON value may become: another type, a huge integer, NaN, an empty container
REPLACEMENTS = ["x", 7, 2.5, -1, None, True, 10 ** 30, math.nan, [], {}]


@pytest.fixture(scope="module")
def prep(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    write_corpus(SynthSpec(n_cities=3, n_countries=2, n_users=60, seed=2),
                 root / "raw.jsonl", root / "cities.csv")
    assert main(["prepare", "--data", str(root / "raw.jsonl"), "--city-table",
                 str(root / "cities.csv"), "--out-dir", str(root / "prep"),
                 "--dev-users", "6", "--min-count", "1"]) == 0
    return root / "prep"


def _nodes(value, path=()):
    """Every (path, value) of a JSON value, the root included."""
    yield path, value
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for k, v in items:
        yield from _nodes(v, path + (k,))


def _mutated_json(payload: bytes, data) -> bytes:
    """One structured mutation: delete a key or element, replace a value, or
    repeat or drop a list element."""
    obj = json.loads(payload)
    path, value = data.draw(st.sampled_from([n for n in _nodes(obj) if n[0]]))
    parent = obj
    for k in path[:-1]:
        parent = parent[k]
    kind = data.draw(st.sampled_from(["delete", "replace", "repeat"]))
    if kind == "delete":
        del parent[path[-1]]
    elif kind == "replace":
        parent[path[-1]] = data.draw(st.sampled_from(REPLACEMENTS))
    else:
        lists = [v for p, v in _nodes(obj) if isinstance(v, list) and v]
        if not lists:
            return json.dumps(obj).encode()
        seq = data.draw(st.sampled_from(lists))
        i = data.draw(st.integers(0, len(seq) - 1))
        seq.insert(i, seq[i])
    return json.dumps(obj).encode()


def _one_byte_edit(payload: bytes, data) -> bytes:
    i = data.draw(st.integers(0, len(payload) - 1))
    b = data.draw(st.sampled_from(b"\n\r\t ,=-.0129aZ\x00\xff\xc3"))
    return payload[:i] + bytes([b]) + payload[i + 1:]


# each example runs `train` twice on a 48-record split, ~10 ms in all
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(name=st.sampled_from(["vocab.txt", "category_maps.json", "cities.csv"]), data=st.data())
def test_train_on_a_mutated_prepared_file_exits_0_1_or_2_without_a_traceback(
        prep, tmp_path, name, data):
    path = prep / name
    original = path.read_bytes()
    mutate = _mutated_json if name.endswith(".json") else _one_byte_edit
    try:
        path.write_bytes(mutate(original, data))
        for model, flags in MODELS.items():
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = main(["train", "--prep-dir", str(prep), "--task", "city", "--model", model,
                           "--out", str(tmp_path / "m.gtlm"), *flags])
            assert rc in (0, 1, 2) and "Traceback" not in err.getvalue(), \
                (name, model, rc, err.getvalue())
    finally:
        path.write_bytes(original)
