import collections
import hashlib
import re

import numpy as np
import pytest

from tweetgeo.geo import (assign_cities, haversine_km, load_city_table, nearest_city,
                          save_city_table)
from tweetgeo.ingest import parse_record, record_to_json
from tweetgeo.synth import MAX_CITIES, SynthSpec, city_grid, generate, write_corpus


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
], ids=["default", "120-cities"])
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
