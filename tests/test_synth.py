import collections
import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import generate_scan
from tweetgeo.geo import (assign_cities, haversine_km, load_city_table, nearest_city,
                          save_city_table)
from tweetgeo.ingest import parse_record, record_to_json
from tweetgeo.synth import MAX_CITIES, SynthSpec, _draws, city_grid, generate, write_corpus


def _corpus_digest(spec, tmp_path):
    """sha256 over the names and bytes of write_corpus's two files."""
    write_corpus(spec, tmp_path / "raw.jsonl", tmp_path / "cities.csv")
    h = hashlib.sha256()
    for name in ("raw.jsonl", "cities.csv"):
        h.update(name.encode())
        h.update((tmp_path / name).read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("spec, digest", [
    (SynthSpec(), "7ab96e605790627cfae8f26984ca081a2b2bcde4909b0a2124126cbc6c53a1cc"),
    (SynthSpec(n_cities=120, n_countries=10, n_users=2000, seed=7),
     "15ea82ee27b949c8b24221c8c78214570a799d45adc19fd87702e2f2fa83abba"),
    (SynthSpec(n_cities=3000, n_countries=200, noise_vocab_size=20000, n_users=2000,
               tweets_per_user=(1, 3), class_skew=1.0, seed=7),
     "44a21a946a5a322e9654f11691fa744e7012d5d02e420d0af4999826c2c1752f"),
], ids=["default", "120-cities", "3000-cities-1-to-3-tweets"])
def test_corpus_bytes_are_pinned(spec, digest, tmp_path):
    assert _corpus_digest(spec, tmp_path) == digest


def test_grid_cities_keep_their_place_past_120():
    small, large = city_grid(SynthSpec(n_cities=120)), city_grid(SynthSpec(n_cities=MAX_CITIES))
    assert large.cities[:120] == small.cities


def test_every_city_is_apart_yet_has_a_neighbour_within_161_km():
    table = city_grid(SynthSpec(n_cities=MAX_CITIES, n_countries=10))
    lat = np.array([c.lat for c in table.cities])
    lon = np.array([c.lon for c in table.cities])
    nearest = np.empty(len(lat))
    for s in range(0, len(lat), 256):
        d = haversine_km((lat[s:s + 256, None], lon[s:s + 256, None]), (lat, lon))
        d[np.arange(len(d)), np.arange(s, s + len(d))] = np.inf
        nearest[s:s + 256] = d.min(axis=1)
    # tweets scatter +-0.04 degrees (< 6.3 km) around their city
    assert nearest.min() >= 20.0
    # so Acc@161 can differ from Acc; on the bare 120-city grid it cannot
    assert nearest.max() <= 161.0


def test_3000_city_corpus_loads_and_resolves_to_its_cities(tmp_path):
    spec = SynthSpec(n_cities=3000, n_countries=10, n_users=3000, seed=4)
    records, table = generate(spec)
    save_city_table(table, tmp_path / "cities.csv")
    loaded = load_city_table(tmp_path / "cities.csv")
    assert loaded.cities == table.cities
    assign_cities(records, loaded)
    for r in records:
        home = re.search(r"\b(?:sig(\d+)w\d+|loc(\d+))\b",
                         " ".join((r.text, r.user_description, r.profile_location)))
        assert r.city_id == int(home[1] or home[2]) + 1


def test_generate_deterministic(tmp_path):
    spec = SynthSpec(n_cities=5, n_countries=2, n_users=50, seed=7)
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    write_corpus(spec, a, tmp_path / "a.csv")
    write_corpus(spec, b, tmp_path / "b.csv")
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_signature_tokens_stay_in_their_city():
    spec = SynthSpec(n_cities=4, n_countries=2, n_users=300, seed=3)
    records, table = generate(spec)
    for r in records:
        home = nearest_city((r.lat, r.lon), table)
        for tok in r.text.split() + r.user_description.split():
            if tok.startswith("sig"):
                assert int(tok[3:tok.index("w")]) == home - 1


def test_tweets_resolve_to_their_city():
    spec = SynthSpec(n_cities=6, n_countries=3, n_users=200, seed=5)
    records, table = generate(spec)
    by_country = collections.Counter(r.country_code for r in records)
    assert len(by_country) == 3
    country_of = {c.city_id: c.country_code for c in table.cities}
    for r in records[:100]:
        assert country_of[nearest_city((r.lat, r.lon), table)] == r.country_code


def test_zipf_skew_ratio():
    spec = SynthSpec(n_cities=5, n_countries=2, n_users=10_000, class_skew=1.0, seed=11)
    records, table = generate(spec)
    counts = collections.Counter(nearest_city((r.lat, r.lon), table) for r in records)
    ranked = [c for _, c in sorted(counts.items())]
    ratio = ranked[0] / ranked[1]
    assert ratio == pytest.approx(2.0, rel=0.2)


def test_corpus_passes_ingest_with_zero_skips():
    spec = SynthSpec(n_cities=3, n_countries=2, n_users=100, seed=9)
    records, _ = generate(spec)
    for r in records:
        parsed = parse_record(record_to_json(r))
        assert parsed.user_id == r.user_id


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(n_cities=2, n_countries=3)
    with pytest.raises(ValueError):
        SynthSpec(tweets_per_user=(0, 1))
    with pytest.raises(ValueError):
        SynthSpec(n_cities=5, tweets_per_user=(1, 9))
    with pytest.raises(ValueError):
        SynthSpec(n_cities=MAX_CITIES + 1)
    with pytest.raises(ValueError, match="class_skew"):
        SynthSpec(class_skew=float("nan"))
    with pytest.raises(ValueError, match="noise_vocab_size"):
        SynthSpec(noise_vocab_size=2**32 + 1)
    with pytest.raises(ValueError, match="tokens_per_field"):
        SynthSpec(tokens_per_field=(1, 2**32))
    SynthSpec(noise_vocab_size=2**32, tokens_per_field=(1, 2**32 - 1))


@pytest.mark.parametrize("make", [generate, generate_scan], ids=["generate", "generate_scan"])
def test_a_skew_that_leaves_too_few_weighted_cities_raises(make):
    # 2.0**2000 overflows, so every city past the first has weight 0
    spec = SynthSpec(n_cities=5, n_countries=1, n_users=50, tweets_per_user=(1, 3),
                     class_skew=2000.0)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="Fewer non-zero entries"):
        make(spec)


@st.composite
def small_specs(draw):
    n_cities = draw(st.integers(1, 8))
    tweets_lo = draw(st.integers(1, n_cities))
    tokens_lo = draw(st.integers(1, 4))
    return SynthSpec(
        n_cities=n_cities, n_countries=draw(st.integers(1, n_cities)),
        noise_vocab_size=draw(st.integers(1, 10**5)),
        tokens_per_field=(tokens_lo, draw(st.integers(tokens_lo, 6))),
        n_users=draw(st.integers(1, 12)),
        tweets_per_user=(tweets_lo, draw(st.integers(tweets_lo, n_cities))),
        class_skew=draw(st.floats(0.0, 3.0)), seed=draw(st.integers(0, 2**32 - 1)))


@settings(deadline=None)
@given(small_specs())
def test_generate_matches_the_scalar_call_generator(spec):
    records, table = generate(spec)
    want_records, want_table = generate_scan(spec)
    assert [record_to_json(r) for r in records] == [record_to_json(r) for r in want_records]
    assert table.cities == want_table.cities


# ranges at the 32-bit edge; at 2**31 + 1 Lemire's method rejects about half its draws
EDGE_RANGES = st.sampled_from([1, 2, 3, 8, 3601, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32])
DRAW = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("integers"), st.integers(-2**40, 2**40),
              st.one_of(EDGE_RANGES, st.integers(1, 2**32))),
    st.tuples(st.just("uniform"), st.floats(-1e3, 1e3), st.floats(0.0, 1e3)))


def _replay(seed, ops):
    """The values of ops drawn through _draws and through numpy's Generator."""
    random, integers, uniform = _draws(seed)
    rng = np.random.default_rng(seed)
    got, want = [], []
    for op in ops:
        if op[0] == "random":
            got.append(random())
            want.append(rng.random())
        elif op[0] == "integers":
            lo, r = op[1:]
            got.append(integers(lo, lo + r))
            want.append(int(rng.integers(lo, lo + r)))
        else:   # numpy refuses a high below low
            a, width = op[1:]
            got.append(uniform(a, a + width))
            want.append(rng.uniform(a, a + width))
    return got, want


@given(st.integers(0, 2**64 - 1), st.lists(DRAW, max_size=60))
def test_draws_replay_numpy_scalar_calls(seed, ops):
    got, want = _replay(seed, ops)
    assert got == want


def test_draws_replay_numpy_across_raw_word_chunks():
    pick = np.random.default_rng(3)
    ranges = [1, 2, 8, 3601, 2**31 + 1, 2**32]
    ops = [("random",) if k == len(ranges) else ("integers", -1800, ranges[k])
           for k in pick.integers(0, len(ranges) + 1, size=50_000).tolist()]
    got, want = _replay(11, ops)
    assert got == want


def test_draws_refuse_a_range_one_32_bit_draw_cannot_serve():
    _, integers, _ = _draws(0)
    for lo, hi in [(0, 2**32 + 1), (5, 5), (5, 4)]:
        with pytest.raises(ValueError, match="range must lie in"):
            integers(lo, hi)
