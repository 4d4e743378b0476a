import dataclasses
import hashlib
import inspect
import json
import os
import shlex
import shutil
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tweetgeo import bayes, bundle as bundle_io, cli, columns, ingest
from tweetgeo.bayes import StackModel, fit_stacking
from tweetgeo.cli import main
from tweetgeo.cnn import FIELDS, CnnConfig
from tweetgeo.synth import SynthSpec, write_corpus
from tweetgeo.textproc import build_vocab, load_vocab
from tweetgeo.train import TrainConfig, load_stack_model


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    spec = SynthSpec(n_cities=4, n_countries=2, n_users=420, seed=21)
    write_corpus(spec, root / "raw.jsonl", root / "cities.csv")
    return root


@pytest.fixture(scope="module")
def prep_dir(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("prep")
    rc = main(["prepare", "--data", str(corpus_dir / "raw.jsonl"),
               "--city-table", str(corpus_dir / "cities.csv"),
               "--out-dir", str(out), "--seed", "4",
               "--test-fraction", "0.2", "--dev-users", "60", "--min-count", "3"])
    assert rc == 0
    return out


CNN_FLAGS = ["--embed-dim", "16", "--windows", "2,3", "--filters", "8",
             "--batch-size", "32", "--max-epochs", "6", "--patience", "3",
             "--max-len-text", "10", "--max-len-user-description", "10",
             "--max-len-profile-location", "4", "--max-len-user-name", "3"]


@pytest.fixture(scope="module")
def cnn_bundle(prep_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    rc = main(["train", "--prep-dir", str(prep_dir), "--task", "city",
               "--model", "cnn", "--out", str(out / "cnn.gtlm"),
               "--log", str(out / "log.csv"), "--seed", "1"] + CNN_FLAGS)
    assert rc == 0
    return out / "cnn.gtlm"


@pytest.fixture(scope="module")
def stack_bundle(prep_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("stack") / "stack.gtlm"
    rc = main(["train", "--prep-dir", str(prep_dir), "--task", "city",
               "--model", "stacking", "--min-count", "3", "--out", str(out)])
    assert rc == 0
    return out


def test_prepare_outputs_exist(prep_dir):
    for name in ("train.jsonl", "dev.jsonl", "test.jsonl", "vocab.txt",
                 "category_maps.json", "cities.csv", "stats.csv"):
        assert (prep_dir / name).exists()
    stats = dict(line.split(",") for line in
                 (prep_dir / "stats.csv").read_text().splitlines()[1:])
    assert stats["n_cities"] == "4"
    assert int(stats["n_tweets"]) == 420   # one tweet per user after dedup


def test_prepare_rerun_is_byte_identical(corpus_dir, prep_dir, tmp_path):
    rc = main(["prepare", "--data", str(corpus_dir / "raw.jsonl"),
               "--city-table", str(corpus_dir / "cities.csv"),
               "--out-dir", str(tmp_path), "--seed", "4",
               "--test-fraction", "0.2", "--dev-users", "60", "--min-count", "3"])
    assert rc == 0
    for name in ("train.jsonl", "dev.jsonl", "test.jsonl", "vocab.txt", "stats.csv",
                 *columns.files("train"), *columns.files("dev")):
        assert (tmp_path / name).read_bytes() == (prep_dir / name).read_bytes()


def test_prepare_missing_city_table_errors(corpus_dir, tmp_path):
    rc = main(["prepare", "--data", str(corpus_dir / "raw.jsonl"),
               "--city-table", str(corpus_dir / "nope.csv"),
               "--out-dir", str(tmp_path)])
    assert rc == 2


BAD_BBOXES = [[1, 2, 3], "abc", {"a": 1}, [None, 1, 2, 3], 5]
BAD_BBOX_LINES = [json.dumps({"user_id": f"bb{i}", "text": "hi", "lat": None, "lon": None,
                              "bbox": bbox}) for i, bbox in enumerate(BAD_BBOXES)]


def test_prepare_skips_lines_with_a_malformed_bbox(corpus_dir, prep_dir, tmp_path, capsys):
    raw = (corpus_dir / "raw.jsonl").read_text().splitlines()
    (tmp_path / "raw.jsonl").write_text("\n".join(BAD_BBOX_LINES[:3] + raw + BAD_BBOX_LINES[3:])
                                        + "\n")
    _, skipped = ingest.read_jsonl(corpus_dir / "raw.jsonl")
    capsys.readouterr()
    rc = main(["prepare", "--data", str(tmp_path / "raw.jsonl"),
               "--city-table", str(corpus_dir / "cities.csv"),
               "--out-dir", str(tmp_path / "p"), "--seed", "4",
               "--test-fraction", "0.2", "--dev-users", "60", "--min-count", "3"])
    assert rc == 0
    assert f"(+{skipped + len(BAD_BBOX_LINES)} skipped)" in capsys.readouterr().out
    for name in ("train.jsonl", "dev.jsonl", "test.jsonl", "vocab.txt", "stats.csv"):
        assert (tmp_path / "p" / name).read_bytes() == (prep_dir / name).read_bytes()


@pytest.mark.parametrize("lat", ["nan", "inf", "95.0"])
def test_prepare_bad_city_coordinates_exit_2_naming_the_row(corpus_dir, tmp_path, capsys, lat):
    lines = (corpus_dir / "cities.csv").read_text().splitlines()
    row = lines[2].split(",")
    row[2] = lat
    lines[2] = ",".join(row)
    (tmp_path / "cities.csv").write_text("\n".join(lines) + "\n")
    rc = main(["prepare", "--data", str(corpus_dir / "raw.jsonl"),
               "--city-table", str(tmp_path / "cities.csv"), "--out-dir", str(tmp_path / "p")])
    assert rc == 2
    assert f"{tmp_path / 'cities.csv'}:3: bad city row" in capsys.readouterr().err


PINNED_CITIES = ("city_id,name,lat,lon,country_code,population\n"
                 "1,Zürich,47.37,8.54,CH,400000\n"
                 "2,Lyon,45.76,4.84,FR,500000\n"
                 "3,Köln,50.94,6.96,DE,1000000\n")


def _pinned_line(user, text, lat=None, lon=None, **kw):
    return json.dumps({"user_id": user, "text": text, "lat": lat, "lon": lon, **kw},
                      ensure_ascii=False)


# u1 tweets twice from Zürich (one survives dedup), u3 has only a bbox, one
# line is not JSON and u8 has no coordinates at all
PINNED_CORPUS = [
    _pinned_line("u1", "Grüezi mitenand #Zürich", 47.37, 8.54, user_name="Üli",
                 tweet_lang="de", user_lang="de", timezone="Bern", posted_at=3600,
                 country_code="CH"),
    _pinned_line("u1", "wieder in Zürich", 47.38, 8.55, user_name="Üli", tweet_lang="de",
                 user_lang="de", timezone="Bern", posted_at=7200, country_code="CH"),
    _pinned_line("u2", "Bonjour à tous, café!", 45.76, 4.84, user_description="lyonnais",
                 tweet_lang="fr", user_lang="fr", timezone="Paris", posted_at=90000,
                 country_code="FR"),
    "{not json",
    _pinned_line("u3", "Guten Morgen Köln 🌞", bbox=[50.9, 6.9, 50.95, 6.95], tweet_lang="de",
                 user_lang="en", timezone="Berlin", posted_at=45000, country_code="DE"),
    _pinned_line("u4", "café in Lyon", 45.7, 4.9, profile_location="Lyon, France",
                 tweet_lang="fr", user_lang="fr", timezone="Paris", posted_at=600,
                 country_code="FR"),
    _pinned_line("u5", "Kölsch im Dom-Viertel", 50.94, 6.96, tweet_lang="de", user_lang="de",
                 timezone="Berlin", posted_at=86399, country_code="DE"),
    _pinned_line("u6", "bonjour Zürich", 47.4, 8.5, tweet_lang="fr", user_lang="de",
                 timezone="Bern", posted_at=1234, country_code="CH"),
    _pinned_line("u7", "Alaaf!", 50.95, 6.97, user_description="Kölner Jeck", tweet_lang="de",
                 user_lang="de", timezone="Berlin", posted_at=43200, country_code="DE"),
    _pinned_line("u8", "nowhere", tweet_lang="en", user_lang="en", country_code="GB"),
]

PINNED_PREPARE = {
    "category_maps.json": (
        '{\n "timezone": [\n  "<unk-cat>",\n  "Bern",\n  "Paris"\n ],\n'
        ' "tweet_lang": [\n  "<unk-cat>",\n  "fr",\n  "de"\n ],\n'
        ' "user_lang": [\n  "<unk-cat>",\n  "de",\n  "fr"\n ]\n}'
    ),
    "cities.csv": PINNED_CITIES.replace("\n", "\r\n"),   # csv.writer line ends
    "dev.jsonl": (
        '{"bbox": null, "city_id": 3, "country_code": "DE", "lat": 50.95, "lon": 6.97, '
        '"posted_at": 43200, "profile_location": "", "text": "Alaaf!", "timezone": "Berlin", '
        '"tweet_lang": "de", "user_description": "Kölner Jeck", "user_id": "u7", '
        '"user_lang": "de", "user_name": ""}\n'
    ),
    "stats.csv": (
        "stat,value\nn_tweets,7\nn_users,7\nn_timezones,3\nn_languages,2\nn_countries,3\n"
        "tweets_per_country_mean,2.3333333333333335\n"
        "tweets_per_country_std,0.4714045207910317\n"
        "n_cities,3\n"
        "tweets_per_city_mean,2.3333333333333335\n"
        "tweets_per_city_std,0.4714045207910317\n"
    ),
    "test.jsonl": (
        '{"bbox": null, "city_id": 3, "country_code": "DE", "lat": 50.925, '
        '"lon": 6.925000000000001, "posted_at": 45000, "profile_location": "", '
        '"text": "Guten Morgen Köln 🌞", "timezone": "Berlin", "tweet_lang": "de", '
        '"user_description": "", "user_id": "u3", "user_lang": "en", "user_name": ""}\n'
        '{"bbox": null, "city_id": 3, "country_code": "DE", "lat": 50.94, "lon": 6.96, '
        '"posted_at": 86399, "profile_location": "", "text": "Kölsch im Dom-Viertel", '
        '"timezone": "Berlin", "tweet_lang": "de", "user_description": "", "user_id": "u5", '
        '"user_lang": "de", "user_name": ""}\n'
    ),
    "train.jsonl": (
        '{"bbox": null, "city_id": 1, "country_code": "CH", "lat": 47.37, "lon": 8.54, '
        '"posted_at": 3600, "profile_location": "", "text": "Grüezi mitenand #Zürich", '
        '"timezone": "Bern", "tweet_lang": "de", "user_description": "", "user_id": "u1", '
        '"user_lang": "de", "user_name": "Üli"}\n'
        '{"bbox": null, "city_id": 2, "country_code": "FR", "lat": 45.76, "lon": 4.84, '
        '"posted_at": 90000, "profile_location": "", "text": "Bonjour à tous, café!", '
        '"timezone": "Paris", "tweet_lang": "fr", "user_description": "lyonnais", '
        '"user_id": "u2", "user_lang": "fr", "user_name": ""}\n'
        '{"bbox": null, "city_id": 2, "country_code": "FR", "lat": 45.7, "lon": 4.9, '
        '"posted_at": 600, "profile_location": "Lyon, France", "text": "café in Lyon", '
        '"timezone": "Paris", "tweet_lang": "fr", "user_description": "", "user_id": "u4", '
        '"user_lang": "fr", "user_name": ""}\n'
        '{"bbox": null, "city_id": 1, "country_code": "CH", "lat": 47.4, "lon": 8.5, '
        '"posted_at": 1234, "profile_location": "", "text": "bonjour Zürich", '
        '"timezone": "Bern", "tweet_lang": "fr", "user_description": "", "user_id": "u6", '
        '"user_lang": "de", "user_name": ""}\n'
    ),
    "vocab.txt": "".join(f"{t}\n" for t in [
        "min_count=1", "size=16", "<pad>", "<unk>", ",", "bonjour", "café", "lyon", "!",
        "#zürich", "france", "grüezi", "in", "lyonnais", "mitenand", "tous", "zürich", "à"]),
    "train_columns.json": (
        '{"labels":{"city_id":[1,2],"country_code":["CH","FR"]},"manifest_sha256":'
        '"a24736cf6594e09075f4926128f4be7ee663aa4c06b50bd6e79583f7a09642e3","rows":4,"sha256":'
        '{"train_city_id.npy":"8bd2fa7c6873c97e24da3767da43702d8c85aadb7136ed816c324b1ebc6b26d2",'
        '"train_country_code.npy":'
        '"8bd2fa7c6873c97e24da3767da43702d8c85aadb7136ed816c324b1ebc6b26d2",'
        '"train_ids.npy":"096d73d8060c2fce3b0cba3bb0dbc5b0bb58278414845cb160538d4a648cd13b",'
        '"train_indptr.npy":"4acd98bbacf553785bed37a467ce92fe2d80c49bb9fad7cccabcaaeab90a1ec9"},'
        '"source_sha256":"31671da920d3efc566a0964e73cf88a707d447c45e0a731097e48e6f82576e81",'
        '"tokens":["!","#zürich",",","bonjour","café","france","grüezi","in","lyon","lyonnais",'
        '"mitenand","pt=1","pt=2","pt=6","tl=de","tl=fr","tous","tz=Bern","tz=Paris","ul=de",'
        '"ul=fr","zürich","à","üli"]}'
    ),
    "dev_columns.json": (
        '{"labels":{"city_id":[3],"country_code":["DE"]},"manifest_sha256":'
        '"642c0d7f895a2be74430368dd83a32298206bf497c220f813d0bbe4af2cac25a","rows":1,"sha256":'
        '{"dev_city_id.npy":"df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",'
        '"dev_country_code.npy":'
        '"df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",'
        '"dev_ids.npy":"e5d2b2a61c02b2819b30398576e30a4f7e7cae68795c3770f804bc24492fd17b",'
        '"dev_indptr.npy":"b344cd5a705fd1e5ec089d885fd388aaf25c7fa014560df4361a5c7e64190b67"},'
        '"source_sha256":"54177c8ec79f5330be41a943ebfa2cf8dc295e1c6a24f82f456b380d4007dd20",'
        '"tokens":["!","alaaf","jeck","kölner","pt=72","tl=de","tz=Berlin","ul=de"]}'
    ),
}
# the four training records' bases and the dev record's, in BASE_FIELDS order,
# as ids into the "tokens" of <split>_columns.json; each label as an index into
# its "labels" values
PINNED_ARRAYS = {
    "train_indptr.npy": ("<i8", [0, 3, 9, 12, 14, 14, 15, 15, 15, 15, 15, 18, 18, 19, 19, 19, 19,
                                 23, 27, 31, 35]),
    "train_ids.npy": ("<i4", [6, 10, 1, 3, 22, 16, 2, 4, 0, 4, 7, 8, 3, 21, 9, 8, 2, 5, 23, 14,
                              19, 17, 13, 15, 20, 18, 13, 15, 20, 18, 11, 15, 19, 17, 12]),
    "train_city_id.npy": ("<i4", [0, 1, 1, 0]),
    "train_country_code.npy": ("<i4", [0, 1, 1, 0]),
    "dev_indptr.npy": ("<i8", [0, 2, 4, 4, 4, 8]),
    "dev_ids.npy": ("<i4", [1, 0, 3, 2, 5, 7, 6, 4]),
    "dev_city_id.npy": ("<i4", [0]),
    "dev_country_code.npy": ("<i4", [0]),
}


def test_prepare_output_bytes_are_pinned(tmp_path, capsys):
    # a hand-written corpus, no RNG: every file `prepare` writes equals a
    # literal, so a rewrite of parsing, dedup, splitting, vocabulary, maps or
    # stats that changes one byte fails here
    (tmp_path / "raw.jsonl").write_text("\n".join(PINNED_CORPUS) + "\n", encoding="utf-8")
    (tmp_path / "cities.csv").write_text(PINNED_CITIES, encoding="utf-8")
    capsys.readouterr()
    rc = main(["prepare", "--data", str(tmp_path / "raw.jsonl"),
               "--city-table", str(tmp_path / "cities.csv"), "--out-dir", str(tmp_path / "p"),
               "--seed", "3", "--test-fraction", "0.34", "--dev-users", "1", "--min-count", "1"])
    assert rc == 0
    assert capsys.readouterr().out == ("prepare: 8 parsed (+2 skipped), 7 after dedup -> "
                                       "train 4 / dev 1 / test 2; vocab 16\n")
    written = {p.name: p.read_bytes() for p in (tmp_path / "p").iterdir()
               if p.suffix != ".npy"}
    assert written == {name: text.encode("utf-8") for name, text in PINNED_PREPARE.items()}
    # the arrays by dtype and values: the .npy header is numpy's to write
    arrays = {p.name: np.load(p) for p in (tmp_path / "p").glob("*.npy")}
    assert {name: (a.dtype.str, a.tolist()) for name, a in arrays.items()} == PINNED_ARRAYS


# texts that take the tokenizer's per-token path: mentions, URLs, hashtags,
# letter runs and Unicode whose lowercase form changes length or letters
GOLDEN_TEXTS = [
    "@Bob check https://t.co/XyZ #NYC!!",
    "WWW.Example.com/a?b=1 sooooo gooooood",
    "wwww.x.com http:// x hhhttp://y.z",
    "@ # @@x ##y !!!! ....",
    "@aaaa #yaaaay __init__ ____ aaaa",
    "İİİİ İstanbul STRAßE ΣΣΣΣ όσος",
    "\U0001F600\U0001F600\U0001F600\U0001F600 café\u0301 e-mail a@b.c x://y",
    "HTTPS://T.CO/Q mid@word 1111 2222222",
]
# (lat, lon) of planted tweets: on a city, halfway between two cities, at the
# antipode of city 1 and at a pole
GOLDEN_POINTS = [(-42.0, -174.0), (-42.0, -159.5), (42.0, 6.0), (90.0, 0.0), (-28.0, -116.0)]

GOLDEN_SHA256 = {
    "category_maps.json": "a4f7f3ff5f73d82e25727f95927872e7ebf1e0273e8c355ed1fd9f36b1304bb4",
    "cities.csv": "e8999f6e0d3e1efb3d24b6098a27388d0636a02c2a4bfd98b61b834cd84f996a",
    "dev.jsonl": "261c1541a7c721ac220bc9935b820e062576caa2b3760b1b0abe37cf85146c42",
    "stats.csv": "bd69cbd2aa43092e60c7aa2b8a98f1bec50d49dfcc561dc89efae825a5d01cf1",
    "test.jsonl": "7127f29b80556688bcd05e6749f791397a2885a50405ad3fc744de404569af28",
    "train.jsonl": "4f18ae8bdfdc96d82313a639bd04291c18e594038356fff907ec627851b43294",
    "vocab.txt": "0a51014a88bb5e72f0b220af174d20d60240fe497cd89fe018fbfa4846a04037",
    # the .npy files by dtype, shape and data (`_pinned_content`)
    "train_city_id.npy": "9fa994ab26c0492b302f6e5062ac377606350ff4ef6ae7b76f84e66ca633729e",
    "train_columns.json": "2cd9e49a29e58541caec372a0672beed62564eba80fb20fad73ae492870414c6",
    "train_country_code.npy": "5ce55b85f1c38a9c77e6e12fc00041472d1f9871a080a8bdc9ef186da77fbdbb",
    "train_ids.npy": "a44a289a45bb99635e4567393f539e98071a6ca4fa1c0243cbde7367c32b2897",
    "train_indptr.npy": "bd970e2df00a1f18134c371c5677ada70fc6d9773284c3e136882ebfa0f55ae7",
    "dev_city_id.npy": "ebe222a54f57ca981d4b6480fb15b511a1ffb929f61be42f9a1e9bdcd05298a5",
    "dev_columns.json": "25acbaa84a7ff67bb76bd8474a9ad9eab98cf8b838243e82ee9577cdcce73c01",
    "dev_country_code.npy": "20115de32c5400a35c54fdd7c05273cf30a571770be6a49c9fa547c89db099ec",
    "dev_ids.npy": "74891647d44a8a626950e3f3cddf32e56f6a5a3296cbcb4d1ada7fab687b60fb",
    "dev_indptr.npy": "8bf65406ea9e520ad47473b3c89f17d7d9f5748d9dd4488a8401f34807df9308",
}


def _golden_corpus(root: Path) -> None:
    """A 6-city synth corpus plus 40 planted tweets of GOLDEN_TEXTS."""
    write_corpus(SynthSpec(n_cities=6, n_countries=2, n_users=150, seed=13),
                 root / "raw.jsonl", root / "cities.csv")
    n = len(GOLDEN_TEXTS)
    lines = []
    for i in range(40):
        lat, lon = GOLDEN_POINTS[i % len(GOLDEN_POINTS)]
        lines.append(json.dumps({
            "user_id": f"planted{i}", "text": GOLDEN_TEXTS[i % n],
            "user_description": GOLDEN_TEXTS[(i + 1) % n],
            "profile_location": GOLDEN_TEXTS[(i + 2) % n],
            "user_name": GOLDEN_TEXTS[(i + 3) % n],
            "tweet_lang": "en", "user_lang": "en", "timezone": f"tz{i % 3}",
            "posted_at": 1000 + i, "lat": lat, "lon": lon, "country_code": "C0"},
            ensure_ascii=False))
    with open(root / "raw.jsonl", "a", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def test_prepare_golden_digest(tmp_path):
    # sha256 of every file `prepare` writes on a synth corpus with planted
    # tweets, so that nearest-city search and tokenizing stay byte for byte
    _golden_corpus(tmp_path)
    rc = main(["prepare", "--data", str(tmp_path / "raw.jsonl"),
               "--city-table", str(tmp_path / "cities.csv"), "--out-dir", str(tmp_path / "p"),
               "--seed", "5", "--test-fraction", "0.2", "--dev-users", "10",
               "--min-count", "1"])
    assert rc == 0
    vocab = load_vocab(tmp_path / "p" / "vocab.txt").index_to_token
    assert {"<user>", "<url>", "#yaaay", "sooo", "goood", "111", "www", "hhhttp", "σσσς",
            "__init__"} <= set(vocab)
    written = {p.name: hashlib.sha256(_pinned_content(p)).hexdigest()
               for p in (tmp_path / "p").iterdir()}
    assert written == GOLDEN_SHA256


def _pinned_content(path: Path) -> bytes:
    """A file's bytes; for an array, its dtype and data, since the .npy header is numpy's."""
    if path.suffix != ".npy":
        return path.read_bytes()
    a = np.load(path)
    return f"{a.dtype.str} {a.shape}\n".encode() + a.tobytes()


NO_UNK_FIRST = '{"tweet_lang": ["en"], "user_lang": ["<unk-cat>"], "timezone": ["<unk-cat>"]}'


@pytest.mark.parametrize("maps", ["{not json", NO_UNK_FIRST], ids=["not-json", "unk-not-first"])
def test_train_corrupt_category_maps_exits_2(prep_dir, tmp_path, capsys, maps):
    prep = tmp_path / "prep"
    shutil.copytree(prep_dir, prep)
    (prep / "category_maps.json").write_text(maps)
    rc = main(["train", "--prep-dir", str(prep), "--task", "city", "--model", "cnn",
               "--out", str(tmp_path / "c.gtlm"), *CNN_FLAGS])
    assert rc == 2
    assert f"{prep / 'category_maps.json'}: bad category maps" in capsys.readouterr().err
    assert not (tmp_path / "c.gtlm").exists()


def test_usage_error_exit_code():
    assert main(["train"]) == 1            # missing required flags
    assert main(["frobnicate"]) == 1       # unknown command
    assert main(["--help"]) == 0


NOT_UTF8_LINE = b'{"user_id": "latin1", "text": "caf\xe9", "lat": 40.0, "lon": -80.0}\n'
LONE_SURROGATE_LINE = b'{"user_id": "lone", "text": "\\udc80", "lat": 40.0, "lon": -80.0}\n'


def _appended(src, dst, tail: bytes) -> str:
    dst.write_bytes(src.read_bytes() + tail)
    return str(dst)


def _prepare_argv(c, data=None, cities=None):
    return ["prepare", "--data", data or str(c.corpus / "raw.jsonl"),
            "--city-table", cities or str(c.corpus / "cities.csv"), "--out-dir", str(c.tmp / "p"),
            "--seed", "4", "--test-fraction", "0.2", "--dev-users", "60", "--min-count", "3"]


def _cities(c, edit):
    """A copy of the corpus city table whose lines are edit(lines)."""
    lines = (c.corpus / "cities.csv").read_text().splitlines(keepends=True)
    (c.tmp / "cities.csv").write_text("".join(edit(lines)))
    return str(c.tmp / "cities.csv")


def _write_train_split(prep, rows):
    """Rewrite a prepared train.jsonl as `rows`, and its token columns as
    `prepare` would write them for it."""
    (prep / "train.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    columns.save_columns(columns.token_columns(ingest.read_jsonl(prep / "train.jsonl")[0]), prep,
                         "train")


def _train_rows(prep):
    return [json.loads(line) for line in (prep / "train.jsonl").read_text().splitlines()]


def _empty_country_code(c):
    prep = c.tmp / "prep"
    shutil.copytree(c.prep, prep)
    rows = _train_rows(prep)
    rows[5]["country_code"] = ""
    _write_train_split(prep, rows)
    return ["train", "--prep-dir", str(prep), "--task", "country", "--model", "stacking",
            "--min-count", "3", "--out", str(c.tmp / "s.gtlm")]


def _vectors_not_utf8(c):
    (c.tmp / "vec.txt").write_bytes(b"1 16\ncaf\xe9" + b" 0.5" * 16 + b"\n")
    return ["train", "--prep-dir", str(c.prep), "--task", "city", "--model", "cnn",
            "--out", str(c.tmp / "c.gtlm"), "--vectors", str(c.tmp / "vec.txt"), *CNN_FLAGS]


def _vectors_not_finite(c):
    word = load_vocab(c.prep / "vocab.txt").content_tokens[0]
    (c.tmp / "vec.txt").write_text(f"1 16\n{word}" + " nan" * 16 + "\n")
    return ["train", "--prep-dir", str(c.prep), "--task", "city", "--model", "cnn",
            "--out", str(c.tmp / "c.gtlm"), "--vectors", str(c.tmp / "vec.txt"), *CNN_FLAGS]


def _predict_argv(c, input_path, out):
    return ["predict", "--model-file", str(c.bundle()), "--input", input_path, "--out", out]


# (expected exit code, argv builder, what stderr or the output must then show)
BAD_INPUT_CASES = {
    "prepare-line-not-utf8": (0, lambda c: _prepare_argv(
        c, data=_appended(c.corpus / "raw.jsonl", c.tmp / "raw.jsonl", NOT_UTF8_LINE)),
        lambda c, out, err: "(+1 skipped)" in out),
    "prepare-lone-surrogate": (0, lambda c: _prepare_argv(
        c, data=_appended(c.corpus / "raw.jsonl", c.tmp / "raw.jsonl", LONE_SURROGATE_LINE)),
        lambda c, out, err: "(+1 skipped)" in out),
    "eval-line-not-utf8": (0, lambda c: [
        "eval", "--model-file", str(c.bundle()), "--out-dir", str(c.tmp / "rep"),
        "--test", _appended(c.prep / "test.jsonl", c.tmp / "t.jsonl", NOT_UTF8_LINE)],
        lambda c, out, err: "skipped=1.0000" in out),
    "predict-line-not-utf8": (0, lambda c: _predict_argv(
        c, _appended(c.prep / "test.jsonl", c.tmp / "t.jsonl", NOT_UTF8_LINE),
        str(c.tmp / "o.jsonl")), lambda c, out, err: "1 skipped" in out),
    "prepare-city-table-not-utf8": (2, lambda c: _prepare_argv(
        c, cities=_appended(c.corpus / "cities.csv", c.tmp / "cities.csv",
                            b"999,Z\xfcrich,47.37,8.54,CH,400000\n")),
        lambda c, out, err: f"{c.tmp / 'cities.csv'}: not UTF-8" in err),
    "train-vectors-not-utf8": (2, _vectors_not_utf8,
                               lambda c, out, err: f"{c.tmp / 'vec.txt'}: not UTF-8" in err),
    "train-vectors-not-finite": (2, _vectors_not_finite, lambda c, out, err: (
        f"{c.tmp / 'vec.txt'}:2: values must be finite" in err
        and not (c.tmp / "c.gtlm").exists())),
    "prepare-city-table-header-only": (2, lambda c: _prepare_argv(
        c, cities=_cities(c, lambda lines: lines[:1])), lambda c, out, err: (
        f"{c.tmp / 'cities.csv'}: city table must be non-empty" in err
        and not (c.tmp / "p").exists())),
    "prepare-city-table-duplicate-id": (2, lambda c: _prepare_argv(
        c, cities=_cities(c, lambda lines: lines + lines[1:2])), lambda c, out, err: (
        f"{c.tmp / 'cities.csv'}: duplicate city_id" in err and not (c.tmp / "p").exists())),
    "predict-out-is-input": (1, lambda c: _predict_argv(
        c, _appended(c.prep / "test.jsonl", c.tmp / "t.jsonl", b""), str(c.tmp / "t.jsonl")),
        lambda c, out, err: (c.tmp / "t.jsonl").read_text() == (c.prep / "test.jsonl").read_text()),
    "predict-input-missing": (2, lambda c: _predict_argv(c, str(c.tmp / "none.jsonl"),
                                                         str(c.tmp / "o.jsonl")),
                              lambda c, out, err: not (c.tmp / "o.jsonl").exists()),
    "predict-input-directory": (2, lambda c: _predict_argv(c, str(c.tmp), str(c.tmp / "o.jsonl")),
                                lambda c, out, err: not (c.tmp / "o.jsonl").exists()),
    "train-country-empty-code": (2, _empty_country_code, lambda c, out, err: err == (
        f"error: {c.tmp / 'prep' / 'train.jsonl'}: line 6 has no country_code\n")),
}


@pytest.mark.parametrize("case", list(BAD_INPUT_CASES))
def test_bad_input_gets_its_exit_code_without_a_traceback(request, corpus_dir, prep_dir,
                                                          tmp_path, capsys, case):
    rc_expected, make_argv, shows = BAD_INPUT_CASES[case]
    c = SimpleNamespace(corpus=corpus_dir, prep=prep_dir, tmp=tmp_path,
                        bundle=lambda: request.getfixturevalue("cnn_bundle"))
    argv = make_argv(c)
    capsys.readouterr()
    assert main(argv) == rc_expected
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert shows(c, out, err), (out, err)


def test_sentinel_valued_category_prepares_and_trains(corpus_dir, tmp_path):
    # a raw categorical value equal to the unknown-value sentinel is read as
    # unknown, so the maps `prepare` writes are ones `train` accepts
    raw = [json.loads(line) for line in (corpus_dir / "raw.jsonl").read_text().splitlines()]
    for i, obj in enumerate(raw):
        if i % 5 == 0:
            obj["timezone"] = obj["tweet_lang"] = "<unk-cat>"
    (tmp_path / "raw.jsonl").write_text("".join(json.dumps(o) + "\n" for o in raw))
    prep = tmp_path / "prep"
    assert main(["prepare", "--data", str(tmp_path / "raw.jsonl"),
                 "--city-table", str(corpus_dir / "cities.csv"), "--out-dir", str(prep),
                 "--seed", "4", "--test-fraction", "0.2", "--dev-users", "60",
                 "--min-count", "3"]) == 0
    maps = json.loads((prep / "category_maps.json").read_text())
    assert all(values.count("<unk-cat>") == 1 and values[0] == "<unk-cat>"
               for values in maps.values())
    assert main(["train", "--prep-dir", str(prep), "--task", "city", "--model", "stacking",
                 "--min-count", "3", "--out", str(tmp_path / "s.gtlm")]) == 0
    assert main(["train", "--prep-dir", str(prep), "--task", "city", "--model", "cnn",
                 "--out", str(tmp_path / "c.gtlm"), *CNN_FLAGS, "--max-epochs", "1"]) == 0


def test_train_cnn_writes_bundle_and_monotone_log(cnn_bundle):
    assert cnn_bundle.exists()
    log = (cnn_bundle.parent / "log.csv").read_text().splitlines()
    assert log[0] == "epoch,train_loss,dev_accuracy,best_dev_accuracy"
    best = [float(line.split(",")[3]) for line in log[1:]]
    assert best == sorted(best)


@pytest.mark.parametrize("value", ["nan", "-0.001", "0", "inf"])
def test_train_rejects_a_learning_rate_that_is_not_positive_and_finite(
        prep_dir, tmp_path, capsys, value):
    # unchecked, nan trains on NaN losses and a negative rate by gradient ascent
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["train", "--prep-dir", str(prep_dir), "--task", "city", "--model", "cnn",
               "--out", str(out / "m.gtlm"), "--log", str(out / "log.csv"),
               *CNN_FLAGS, f"--lr={value}"])
    assert rc == 1
    assert "lr must be finite and > 0" in capsys.readouterr().err
    assert list(out.iterdir()) == []


TEST_FRACTION_ERROR = (1, "test_user_fraction must be in (0, 1)")
MIN_COUNT_ERROR = (1, "a frequency cutoff must be >= 1")
# (flag, value) -> (exit code, what stderr shows); a --data or --city-table
# value names a file in the test's directory
PREPARE_FLAG_ERRORS = {
    ("--test-fraction", "nan"): TEST_FRACTION_ERROR,
    ("--test-fraction", "1.5"): TEST_FRACTION_ERROR,
    ("--test-fraction", "-0.2"): TEST_FRACTION_ERROR,
    ("--dev-users", "-5"): (1, "dev_user_count must be >= 0"),
    ("--min-count", "-3"): MIN_COUNT_ERROR,
    ("--min-count", "0"): MIN_COUNT_ERROR,
    ("--dev-users", "50000"): (1, "dev_user_count 50000 >= 378 non-test users"),
    ("--city-table", "missing.csv"): (2, "missing.csv"),
    ("--data", "no-records.jsonl"): (2, "no-records.jsonl: no usable records"),
}


@pytest.mark.parametrize("flag, value", list(PREPARE_FLAG_ERRORS))
def test_prepare_rejects_a_bad_split_or_cutoff_before_writing(
        corpus_dir, tmp_path, capsys, flag, value):
    # unchecked until --out-dir existed, a bad split left an empty directory;
    # a cutoff below 1 went into vocab.txt. A missing city table, a corpus
    # with no usable record or a split that cannot be made also left one.
    rc_expected, message = PREPARE_FLAG_ERRORS[flag, value]
    (tmp_path / "no-records.jsonl").write_text("{not json\n")
    if flag in ("--data", "--city-table"):
        value = tmp_path / value
    out = tmp_path / "prep"
    rc = main(["prepare", "--data", str(corpus_dir / "raw.jsonl"),
               "--city-table", str(corpus_dir / "cities.csv"), "--out-dir", str(out),
               f"{flag}={value}"])
    assert rc == rc_expected
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_defaults_are_the_library_defaults(corpus_dir, prep_dir, tmp_path, monkeypatch):
    # each default is read from the type or constant that owns it
    class Stop(Exception):
        pass

    seen = {}

    def stop_at(name):
        def record(*args, **kwargs):
            seen[name] = args, kwargs
            raise Stop
        return record

    monkeypatch.setattr(ingest, "split_by_user", stop_at("split"))
    monkeypatch.setattr(cli, "train", stop_at("cnn"))
    monkeypatch.setattr(bayes, "fit_stacking", stop_at("stacking"))
    parser = cli.build_parser()
    prepare = parser.parse_args(["prepare", "--data", str(corpus_dir / "raw.jsonl"),
                                 "--city-table", str(corpus_dir / "cities.csv"),
                                 "--out-dir", str(tmp_path / "p")])
    train = {model: parser.parse_args(["train", "--prep-dir", str(prep_dir), "--task", "city",
                                       "--model", model, "--out", str(tmp_path / "m.gtlm")])
             for model in ("cnn", "stacking")}
    for ns in (prepare, *train.values()):
        with pytest.raises(Stop):
            ns.func(ns)
    assert seen["split"][0][1] == ingest.SplitSpec()
    model, _, _, tcfg = seen["cnn"][0]
    assert model.config == CnnConfig(label_count=4)
    assert tcfg == TrainConfig()
    # stacking's folds and smoothing are constants, neither a parameter nor a stored field
    kwargs = seen["stacking"][1]
    for name in ("folds", "alpha"):
        assert name not in inspect.signature(fit_stacking).parameters
        assert name not in {f.name for f in dataclasses.fields(StackModel)}
    # one frequency cutoff for both --min-count flags and build_vocab
    assert prepare.min_count == kwargs["min_count"] == \
        inspect.signature(build_vocab).parameters["min_count"].default


@pytest.mark.parametrize("command", ["prepare", "train", "eval", "predict"])
def test_every_subcommand_help_renders(capsys, command):
    # argparse expands a help string's %(default)s only when it renders that help
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: tweetgeo {command}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the overflows of diverging
@pytest.mark.parametrize("flags, shows", [
    ([], "mean loss nan"), (["--batch-size", "100000", "--max-epochs", "1"], "dev accuracy nan")],
    ids=["many-steps", "one-step"])
def test_train_that_diverges_writes_nothing(prep_dir, tmp_path, capsys, flags, shows):
    # unchecked, it logged nan for every epoch and wrote a bundle eval refused;
    # an epoch of one step has a finite loss, taken before the step blew up
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["train", "--prep-dir", str(prep_dir), "--task", "city", "--model", "cnn",
               "--out", str(out / "m.gtlm"), "--log", str(out / "log.csv"),
               *CNN_FLAGS, *flags, "--lr", "1e30"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "training diverged at epoch 1:" in err and shows in err
    assert "--lr" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("model, value", [("stacking", "0"), ("stacking+", "-2"), ("cnn", "0")])
def test_train_rejects_a_min_count_below_one(prep_dir, tmp_path, capsys, model, value):
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["train", "--prep-dir", str(prep_dir), "--task", "city", "--model", model,
               "--out", str(out / "m.gtlm"), "--log", str(out / "log.csv"),
               *CNN_FLAGS, f"--min-count={value}"])
    assert rc == 1
    assert "a frequency cutoff must be >= 1" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("model, flag, owner", [
    ("cnn", "--igr-top-percent", "stacking+"), ("stacking", "--igr-top-percent", "stacking+"),
    ("stacking", "--vectors", "cnn"), ("stacking+", "--vectors", "cnn")])
def test_train_refuses_a_flag_its_model_ignores(tmp_path, capsys, model, flag, owner):
    # refused before any file is read, so the prepared directory need not exist
    value = "40" if flag == "--igr-top-percent" else str(tmp_path / "vectors.txt")
    rc = main(["train", "--prep-dir", str(tmp_path / "no-prep"), "--task", "city",
               "--model", model, "--out", str(tmp_path / "m.gtlm"), flag, value])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: {flag} applies only to --model {owner}, "
                                       f"not {model}\n")
    assert list(tmp_path.iterdir()) == []


def test_train_names_a_training_label_outside_the_city_table(prep_dir, tmp_path, capsys):
    prep = tmp_path / "prep"
    shutil.copytree(prep_dir, prep)
    rows = _train_rows(prep)
    rows[3]["city_id"] = 987654
    _write_train_split(prep, rows)
    # both models read the token columns, which hold no user, and name the line
    for model in ("cnn", "stacking"):
        rc = main(["train", "--prep-dir", str(prep), "--task", "city", "--model", model,
                   "--min-count", "3", "--out", str(tmp_path / "m.gtlm"), *CNN_FLAGS])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: {prep / 'train.jsonl'}: line 4 has "
                                           "city_id 987654, not in the label table\n"), model
        assert not (tmp_path / "m.gtlm").exists()


TRAIN_COLUMNS = columns.files("train")


# only the CNN reads the dev split; stacking never opens it
@pytest.mark.parametrize("model", ["cnn"])
@pytest.mark.parametrize("task, field, missing", [("city", "city_id", None),
                                                  ("country", "country_code", "")])
def test_train_names_an_unlabeled_dev_record(prep_dir, tmp_path, capsys, model, task, field,
                                             missing):
    prep = tmp_path / "prep"
    shutil.copytree(prep_dir, prep)
    rows = [json.loads(line) for line in (prep / "dev.jsonl").read_text().splitlines()]
    rows[2][field] = missing
    (prep / "dev.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    columns.save_columns(columns.token_columns(ingest.read_jsonl(prep / "dev.jsonl")[0]), prep,
                         "dev")
    capsys.readouterr()
    rc = main(["train", "--prep-dir", str(prep), "--task", task, "--model", model,
               "--min-count", "3", "--out", str(tmp_path / "m.gtlm"), *CNN_FLAGS])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {prep / 'dev.jsonl'}: line 3 has no {field}\n"
    assert not (tmp_path / "m.gtlm").exists()


@pytest.mark.parametrize("task, needs", [("city", ["train.jsonl", *TRAIN_COLUMNS, "cities.csv"]),
                                         ("country", ["train.jsonl", *TRAIN_COLUMNS])],
                         ids=["city", "country"])
def test_stacking_reads_only_the_training_split_and_its_label_table(prep_dir, tmp_path, task,
                                                                     needs):
    # the training split's token columns and, to check them, its train.jsonl;
    # no dev split, vocabulary or category maps: those are the CNN's
    bare = tmp_path / "bare"
    bare.mkdir()
    for name in needs:
        shutil.copy(prep_dir / name, bare / name)
    for prep, out in ((prep_dir, "full.gtlm"), (bare, "bare.gtlm")):
        assert main(["train", "--prep-dir", str(prep), "--task", task, "--model", "stacking",
                     "--min-count", "3", "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "bare.gtlm").read_bytes() == (tmp_path / "full.gtlm").read_bytes()


@pytest.mark.parametrize("model, task, name", [
    ("stacking", "country", "train.jsonl"), ("stacking", "city", "cities.csv"),
    *(("stacking+", "country", name) for name in TRAIN_COLUMNS),
    ("cnn", "country", "dev.jsonl"), *(("cnn", "country", name) for name in columns.files("dev")),
    ("cnn", "country", "vocab.txt"),
    ("cnn", "country", "category_maps.json")])
def test_train_names_a_missing_file_its_model_reads(prep_dir, tmp_path, capsys, model, task,
                                                    name):
    prep = tmp_path / "prep"
    shutil.copytree(prep_dir, prep)
    (prep / name).unlink()
    rc = main(["train", "--prep-dir", str(prep), "--task", task, "--model", model,
               "--out", str(tmp_path / "m.gtlm"), *CNN_FLAGS])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: {prep / name} missing; "
                                       "run `tweetgeo prepare` first\n")
    assert not (tmp_path / "m.gtlm").exists()


@pytest.mark.parametrize("model", ["cnn", "stacking"])
@pytest.mark.parametrize("task", ["city", "country"])
def test_train_on_an_empty_split_exits_2(prep_dir, tmp_path, capsys, model, task):
    prep = tmp_path / "prep"
    shutil.copytree(prep_dir, prep)
    _write_train_split(prep, [])
    rc = main(["train", "--prep-dir", str(prep), "--task", task, "--model", model,
               "--out", str(tmp_path / "m.gtlm"), *CNN_FLAGS])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {prep / 'train.jsonl'}: no usable records\n"
    assert not (tmp_path / "m.gtlm").exists()


def test_cnn_train_parses_no_jsonl_record(prep_dir, tmp_path, monkeypatch):
    # both splits come from their token columns; train.jsonl and dev.jsonl are
    # read only for their checksums, and the columns are released (their
    # files unmapped) once encoded: the fit reads only the encoded features
    def unreachable(*args, **kwargs):
        raise AssertionError("reached")

    def load_and_watch(*args, **kwargs):
        cols = load(*args, **kwargs)
        refs.append(weakref.ref(cols))
        return cols

    def fit_once_released(*args, **kwargs):
        assert [ref for ref in refs if ref() is not None] == []
        return fit(*args, **kwargs)

    refs, load, fit = [], columns.load_columns, cli.train
    monkeypatch.setattr(ingest, "parse_record", unreachable)
    monkeypatch.setattr(columns, "load_columns", load_and_watch)
    monkeypatch.setattr(cli, "train", fit_once_released)
    assert main(["train", "--prep-dir", str(prep_dir), "--task", "city", "--model", "cnn",
                 "--out", str(tmp_path / "c.gtlm"), *CNN_FLAGS, "--max-epochs", "1"]) == 0
    assert len(refs) == 2


@pytest.mark.parametrize("model, flag", [("cnn", "--out"), ("cnn", "--log"),
                                         ("stacking", "--out")],
                         ids=["cnn-out", "cnn-log", "stacking-out"])
def test_train_checks_its_output_directories_before_reading(prep_dir, tmp_path, capsys,
                                                            monkeypatch, model, flag):
    # unchecked, a missing directory was found only when the fitted model was saved
    def unreachable(*args, **kwargs):
        raise AssertionError("reached")

    for module, name in ((ingest, "read_jsonl"), (cli, "train"), (bayes, "fit_stacking"),
                         (columns, "load_columns")):
        monkeypatch.setattr(module, name, unreachable)
    paths = {"--out": tmp_path / "m.gtlm", "--log": tmp_path / "log.csv"}
    paths[flag] = tmp_path / "nodir" / paths[flag].name
    rc = main(["train", "--prep-dir", str(prep_dir), "--task", "city", "--model", model,
               "--out", str(paths["--out"]), "--log", str(paths["--log"]), *CNN_FLAGS])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: {paths[flag]}: {tmp_path / 'nodir'} "
                                       "is not a directory\n")
    assert not (tmp_path / "nodir").exists() and not (tmp_path / "m.gtlm").exists()


def test_train_stacking_plus_reduces_vocab(prep_dir, tmp_path):
    rc = main(["train", "--prep-dir", str(prep_dir), "--task", "city",
               "--model", "stacking+", "--igr-top-percent", "40",
               "--min-count", "3", "--out", str(tmp_path / "s.gtlm")])
    assert rc == 0
    loaded = load_stack_model(tmp_path / "s.gtlm")
    assert loaded.model.igr_percent == 40.0
    full_vocab = load_vocab(prep_dir / "vocab.txt")
    reduced = loaded.model.base_vocabs["text"]
    # text-base vocabulary was IGR-selected down to ~40% of its own tokens
    assert 0 < len(reduced.content_tokens) < len(full_vocab.content_tokens)


def test_eval_city_reports(cnn_bundle, prep_dir, tmp_path):
    rc = main(["eval", "--model-file", str(cnn_bundle),
               "--test", str(prep_dir / "test.jsonl"), "--out-dir", str(tmp_path)])
    assert rc == 0
    summary = dict(line.split(",") for line in
                   (tmp_path / "metrics_summary.csv").read_text().splitlines()[1:])
    assert {"accuracy", "acc_top5", "acc_at_161", "median_error_km"} <= set(summary)
    assert float(summary["accuracy"]) <= float(summary["acc_top5"])
    assert (tmp_path / "per_class_pr.csv").exists()
    assert (tmp_path / "calibration.csv").exists()


@pytest.mark.parametrize("section", ["config", "label_table", "vocab:text", "vocab:cats",
                                     "tensor:text:prior", "tensor:meta:log_prob"])
def test_eval_stack_bundle_missing_section_exits_2(stack_bundle, prep_dir, tmp_path, capsys,
                                                   section):
    model_type, sections = bundle_io.read_sections(stack_bundle)
    del sections[section]
    bundle_io.write_sections(tmp_path / "bad.gtlm", model_type, list(sections.items()))
    rc = main(["eval", "--model-file", str(tmp_path / "bad.gtlm"),
               "--test", str(prep_dir / "test.jsonl"), "--out-dir", str(tmp_path / "rep")])
    assert rc == 2
    assert repr(section) in capsys.readouterr().err


@pytest.mark.parametrize("bundle, key", [("cnn_bundle", "embed_dim"), ("cnn_bundle", "label_count"),
                                         ("stack_bundle", "label_count")])
def test_eval_bundle_config_missing_key_exits_2(request, prep_dir, tmp_path, capsys, bundle, key):
    model_type, sections = bundle_io.read_sections(request.getfixturevalue(bundle))
    config = json.loads(sections["config"])
    del config[key]
    sections["config"] = bundle_io.encode_json(config)
    bundle_io.write_sections(tmp_path / "bad.gtlm", model_type, list(sections.items()))
    rc = main(["eval", "--model-file", str(tmp_path / "bad.gtlm"),
               "--test", str(prep_dir / "test.jsonl"), "--out-dir", str(tmp_path / "rep")])
    assert rc == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("edit", [lambda c: c["max_lens"].update(text=c["max_lens"]["text"] + 0.5),
                                  lambda c: c.update(windows=[float(h) for h in c["windows"]])],
                         ids=["max-len-text-10.5", "windows-2.0-3.0"])
def test_eval_cnn_bundle_config_with_a_non_integer_size_exits_2(cnn_bundle, prep_dir, tmp_path,
                                                                capsys, edit):
    # a float max_len would reach a slice, and a float window would be truncated
    model_type, sections = bundle_io.read_sections(cnn_bundle)
    config = json.loads(sections["config"])
    edit(config)
    sections["config"] = bundle_io.encode_json(config)
    bundle_io.write_sections(tmp_path / "bad.gtlm", model_type, list(sections.items()))
    rc = main(["eval", "--model-file", str(tmp_path / "bad.gtlm"),
               "--test", str(prep_dir / "test.jsonl"), "--out-dir", str(tmp_path / "rep")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad config section" in err and "windows and max_lens must be integers" in err


def test_eval_cnn_bundle_config_with_an_oversized_max_len_exits_2(cnn_bundle, prep_dir, tmp_path,
                                                                  capsys):
    # unchecked, padding a field to 10**20 tokens overflows an index
    model_type, sections = bundle_io.read_sections(cnn_bundle)
    config = json.loads(sections["config"])
    config["max_lens"]["text"] = 10**20
    sections["config"] = bundle_io.encode_json(config)
    bundle_io.write_sections(tmp_path / "bad.gtlm", model_type, list(sections.items()))
    rc = main(["eval", "--model-file", str(tmp_path / "bad.gtlm"),
               "--test", str(prep_dir / "test.jsonl"), "--out-dir", str(tmp_path / "rep")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad config section" in err and "max_lens must be <= 1024" in err


def test_train_rejects_an_oversized_max_len(prep_dir, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["train", "--prep-dir", str(prep_dir), "--task", "city", "--model", "cnn",
               "--out", str(out / "m.gtlm"), *CNN_FLAGS, "--max-len-text", str(10**20)])
    assert rc == 1
    assert "max_lens must be <= 1024" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("section", ["tensor:text:log_prob", "tensor:meta:log_prob",
                                     "tensor:cats:prior"])
def test_eval_stack_bundle_with_mis_sized_tensor_exits_2(stack_bundle, prep_dir, tmp_path, capsys,
                                                         section):
    model_type, sections = bundle_io.read_sections(stack_bundle)
    t = bundle_io.decode_tensor(sections[section])
    sections[section] = bundle_io.encode_tensor(t[..., :-1])   # one feature (or label) short
    bundle_io.write_sections(tmp_path / "bad.gtlm", model_type, list(sections.items()))
    rc = main(["eval", "--model-file", str(tmp_path / "bad.gtlm"),
               "--test", str(prep_dir / "test.jsonl"), "--out-dir", str(tmp_path / "rep")])
    assert rc == 2
    assert f"tensor {section.split(':', 1)[1]} has shape" in capsys.readouterr().err


def test_eval_stack_bundle_with_float32_tensor_exits_2(stack_bundle, prep_dir, tmp_path, capsys):
    model_type, sections = bundle_io.read_sections(stack_bundle)
    t = bundle_io.decode_tensor(sections["tensor:text:log_prob"])
    sections["tensor:text:log_prob"] = bundle_io.encode_tensor(t.astype("float32"))
    bundle_io.write_sections(tmp_path / "bad.gtlm", model_type, list(sections.items()))
    rc = main(["eval", "--model-file", str(tmp_path / "bad.gtlm"),
               "--test", str(prep_dir / "test.jsonl"), "--out-dir", str(tmp_path / "rep")])
    assert rc == 2
    assert "tensor text:log_prob is float32, expected float64" in capsys.readouterr().err


def _with_cell(bundle, tmp_path, section, value):
    """A copy of `bundle` whose tensor `section` holds `value` in one cell."""
    model_type, sections = bundle_io.read_sections(bundle)
    t = bundle_io.decode_tensor(sections[section]).copy()
    t.flat[t.size // 2] = value
    sections[section] = bundle_io.encode_tensor(t)
    bundle_io.write_sections(tmp_path / "cell.gtlm", model_type, list(sections.items()))
    return tmp_path / "cell.gtlm"


@pytest.mark.parametrize("bundle, section", [("cnn_bundle", "tensor:embedding"),
                                             ("stack_bundle", "tensor:text:log_prob")])
def test_eval_refuses_a_bundle_tensor_holding_nan(request, prep_dir, tmp_path, capsys,
                                                  bundle, section):
    bad = _with_cell(request.getfixturevalue(bundle), tmp_path, section, np.nan)
    rc = main(["eval", "--model-file", str(bad),
               "--test", str(prep_dir / "test.jsonl"), "--out-dir", str(tmp_path / "rep")])
    assert rc == 2
    assert f"tensor {section.split(':', 1)[1]} holds NaN" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def _cli_child(argv, **env):
    """Run the CLI in a child process with extra environment variables."""
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "tweetgeo.cli", *argv], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path, **env))


def test_a_bundle_that_scores_non_finite_probabilities_exits_2(cnn_bundle, prep_dir, tmp_path):
    # finite weights whose logits overflow. The CLI runs in a child process,
    # whose stderr must be the one error line: no numpy RuntimeWarning
    model_type, sections = bundle_io.read_sections(cnn_bundle)
    w = bundle_io.decode_tensor(sections["tensor:softmax_w"])
    sections["tensor:softmax_w"] = bundle_io.encode_tensor(np.full_like(w, 3e38))
    bad = tmp_path / "overflow.gtlm"
    bundle_io.write_sections(bad, model_type, list(sections.items()))
    test = str(prep_dir / "test.jsonl")
    for argv in (["eval", "--test", test, "--out-dir", str(tmp_path / "rep")],
                 ["predict", "--input", test, "--out", str(tmp_path / "pred.jsonl")]):
        proc = _cli_child([*argv, "--model-file", str(bad)])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == (f"error: {bad}: the model scores non-finite probabilities; "
                               "its weights overflow\n")
    assert not (tmp_path / "rep").exists()
    assert (tmp_path / "pred.jsonl").read_text() == ""


# the BLAS thread count may change a CNN probability by rounding alone
CROSS_THREAD_PROB_TOL = 1e-5


def test_predict_across_blas_thread_counts(cnn_bundle, stack_bundle, prep_dir, tmp_path):
    # CNN ranked labels agree and probabilities agree within the tolerance;
    # stacking output is byte-identical
    out = {}
    for bundle in (cnn_bundle, stack_bundle):
        for threads in ("1", "2"):
            pred = tmp_path / f"{bundle.stem}-{threads}.jsonl"
            proc = _cli_child(["predict", "--model-file", str(bundle),
                               "--input", str(prep_dir / "test.jsonl"), "--out", str(pred)],
                              OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                              MKL_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            out[bundle, threads] = pred.read_text(encoding="utf-8")
    assert out[stack_bundle, "1"] == out[stack_bundle, "2"]
    one, two = ([json.loads(line) for line in out[cnn_bundle, t].splitlines()] for t in "12")
    assert len(one) == len(two) > 0
    for a, b in zip(one, two):
        assert a["user_id"] == b["user_id"] and a["ranked_labels"] == b["ranked_labels"]
        np.testing.assert_allclose(a["ranked_probs"], b["ranked_probs"],
                                   rtol=0, atol=CROSS_THREAD_PROB_TOL)


def test_eval_accepts_a_minus_inf_stack_prior(stack_bundle, prep_dir, tmp_path):
    # the log prior of a class with no training documents
    bad = _with_cell(stack_bundle, tmp_path, "tensor:meta:prior", -np.inf)
    assert main(["eval", "--model-file", str(bad),
                 "--test", str(prep_dir / "test.jsonl"), "--out-dir", str(tmp_path / "rep")]) == 0


@pytest.mark.parametrize("bundle", ["cnn_bundle", "stack_bundle"])
def test_eval_reads_the_bundle_once(request, prep_dir, tmp_path, monkeypatch, bundle):
    calls = []
    read = bundle_io.read_sections
    monkeypatch.setattr(bundle_io, "read_sections", lambda path: calls.append(path) or read(path))
    rc = main(["eval", "--model-file", str(request.getfixturevalue(bundle)),
               "--test", str(prep_dir / "test.jsonl"), "--out-dir", str(tmp_path)])
    assert rc == 0
    assert len(calls) == 1


@pytest.mark.parametrize("field, missing", [("city_id", None), ("country_code", "")])
def test_eval_rejects_records_without_a_label(cnn_bundle, prep_dir, tmp_path, capsys,
                                              field, missing):
    bundle = cnn_bundle
    if field == "country_code":
        bundle = tmp_path / "country.gtlm"
        assert main(["train", "--prep-dir", str(prep_dir), "--task", "country", "--model",
                     "stacking", "--min-count", "3", "--out", str(bundle)]) == 0
    rows = [json.loads(line) for line in (prep_dir / "test.jsonl").read_text().splitlines()]
    rows[3][field] = missing
    (tmp_path / "test.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    capsys.readouterr()
    rc = main(["eval", "--model-file", str(bundle),
               "--test", str(tmp_path / "test.jsonl"), "--out-dir", str(tmp_path / "rep")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "test.jsonl") in err and repr(rows[3]["user_id"]) in err
    assert f"has no {field}" in err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("task, n_test, skipped", [("country", 30, 0), ("city", 29, 1)])
def test_eval_needs_coordinates_only_for_city_bundles(prep_dir, tmp_path, capsys,
                                                       task, n_test, skipped):
    # only the city metrics read a record's true coordinates
    assert main(["train", "--prep-dir", str(prep_dir), "--task", task, "--model", "stacking",
                 "--min-count", "3", "--out", str(tmp_path / "m.gtlm")]) == 0
    rows = [json.loads(line) for line in (prep_dir / "test.jsonl").read_text().splitlines()][:30]
    rows[4]["lat"] = rows[4]["lon"] = None
    (tmp_path / "test.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    capsys.readouterr()
    assert main(["eval", "--model-file", str(tmp_path / "m.gtlm"),
                 "--test", str(tmp_path / "test.jsonl"), "--out-dir", str(tmp_path / "rep")]) == 0
    assert f"n_test={n_test}.0000  skipped={skipped}.0000" in capsys.readouterr().out


def _in_an_older_filter_layout(src, dst, tags, **config_keys):
    """A copy of CNN bundle `src` at `dst` whose filters are stored as older
    bundles stored them: one (m, h*k) bank and one bias per window and tag,
    as sections tensor:conv_w<tag>_h<h> and tensor:conv_b<tag>_h<h>."""
    model_type, sections = bundle_io.read_sections(src)
    config = json.loads(sections["config"])
    k, m = config["embed_dim"], config["filters_per_window"]
    conv_w = bundle_io.decode_tensor(sections.pop("tensor:conv_w"))
    conv_b = bundle_io.decode_tensor(sections.pop("tensor:conv_b"))
    banks, start = [], 0
    for i, h in enumerate(config["windows"]):
        w = conv_w[start:start + h * m].reshape(h, m, k).transpose(1, 0, 2).reshape(m, h * k)
        start += h * m
        banks += [(f"tensor:conv_{wb}{tag}_h{h}", bundle_io.encode_tensor(t))
                  for tag in tags for wb, t in (("w", w), ("b", conv_b[i]))]
    sections["config"] = bundle_io.encode_json(config | config_keys)
    items = list(sections.items())
    bundle_io.write_sections(dst, model_type, items[:5] + banks + items[5:])
    return dst


def test_eval_refuses_a_per_field_filter_bundle(cnn_bundle, prep_dir, tmp_path, capsys):
    # the per-field layout (one filter bank per field and window) is no longer
    # read: such a bundle is a data error naming the filter tensor it lacks
    bad = _in_an_older_filter_layout(cnn_bundle, tmp_path / "per_field.gtlm",
                                     [f"_{f}" for f in FIELDS], share_filters=False)
    assert main(["eval", "--model-file", str(bad),
                 "--test", str(prep_dir / "test.jsonl"), "--out-dir", str(tmp_path / "rep")]) == 2
    assert "bundle lacks section 'tensor:conv_w'" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def _scoring_argv(command, bundle, prep_dir, out):
    if command == "eval":
        return ["eval", "--model-file", str(bundle), "--test", str(prep_dir / "test.jsonl"),
                "--out-dir", str(out)]
    return ["predict", "--model-file", str(bundle), "--input", str(prep_dir / "test.jsonl"),
            "--out", str(out)]


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_a_per_window_filter_bundle_exits_2(cnn_bundle, prep_dir, tmp_path, capsys, command):
    # one (m, h*k) bank and bias per window, shared by every field, is the
    # layout before all banks were stacked into conv_w; it is no longer read
    bad = _in_an_older_filter_layout(cnn_bundle, tmp_path / "per_window.gtlm", [""])
    _, sections = bundle_io.read_sections(bad)
    assert "tensor:conv_w_h2" in sections and "tensor:conv_b_h3" in sections
    assert main(_scoring_argv(command, bad, prep_dir, tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert f"{bad}: bundle lacks section 'tensor:conv_w'" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_a_city_bundle_without_label_coordinates_exits_2(cnn_bundle, prep_dir, tmp_path, capsys,
                                                         command):
    # the city metrics need each label's coordinates, so the bundle is refused
    # when it loads, before any record is scored
    model_type, sections = bundle_io.read_sections(cnn_bundle)
    table = json.loads(sections["label_table"])
    assert table["task"] == "city" and table["coords"]
    _rewrite(cnn_bundle, tmp_path / "bad.gtlm", "label_table",
             bundle_io.encode_json(table | {"coords": None}))
    assert main(_scoring_argv(command, tmp_path / "bad.gtlm", prep_dir, tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "bad label_table section" in err
    assert "a city label table must have coordinates" in err
    assert not (tmp_path / "out").exists()


def test_eval_bundle_with_truncated_vocabulary_exits_2(cnn_bundle, prep_dir, tmp_path, capsys):
    model_type, sections = bundle_io.read_sections(cnn_bundle)
    sections["vocabulary"] = sections["vocabulary"].rsplit(b"\n", 3)[0]
    bundle_io.write_sections(tmp_path / "bad.gtlm", model_type, list(sections.items()))
    rc = main(["eval", "--model-file", str(tmp_path / "bad.gtlm"),
               "--test", str(prep_dir / "test.jsonl"), "--out-dir", str(tmp_path / "rep")])
    assert rc == 2
    assert "truncated" in capsys.readouterr().err


@pytest.mark.parametrize("byte, mask", [(7, 0xFF), (5, 0x01)])
def test_eval_bundle_with_flipped_section_length_exits_2(cnn_bundle, prep_dir, tmp_path, capsys,
                                                         byte, mask):
    # the u64 length of the second section (config) grows past the file's end
    raw = bytearray(cnn_bundle.read_bytes())
    at = 8
    for _ in range(2):
        name_end = at + 2 + int.from_bytes(raw[at:at + 2], "little")
        length_at, at = name_end, name_end + 8 + int.from_bytes(raw[name_end:name_end + 8],
                                                               "little")
    assert raw[length_at - 6:length_at] == b"config"
    raw[length_at + byte] ^= mask
    (tmp_path / "bad.gtlm").write_bytes(bytes(raw))
    rc = main(["eval", "--model-file", str(tmp_path / "bad.gtlm"),
               "--test", str(prep_dir / "test.jsonl"), "--out-dir", str(tmp_path / "rep")])
    assert rc == 2
    assert "truncated bundle while reading section config" in capsys.readouterr().err


def _rewrite(src, dst, name, payload):
    """A copy of bundle `src` at `dst` whose section `name` holds `payload`."""
    model_type, sections = bundle_io.read_sections(src)
    sections[name] = payload
    bundle_io.write_sections(dst, model_type, list(sections.items()))


def _cut_inside_config(src, dst):
    """A copy of bundle `src` at `dst` that ends one byte into the config
    section's payload, past its name and u64 length."""
    raw = src.read_bytes()
    dst.write_bytes(raw[:raw.index(b"config") + len(b"config") + 8 + 1])


@pytest.mark.parametrize("bundle, corrupt, shows", [
    ("cnn_bundle", lambda src, dst: _rewrite(src, dst, "config", b"{not json"),
     "corrupt config: Expecting property name"),
    ("cnn_bundle", _cut_inside_config, "truncated bundle while reading section config"),
    ("stack_bundle", lambda src, dst: _rewrite(src, dst, "tensor:text:prior", b"\x08"),
     "truncated text:prior header")],
    ids=["config-not-json", "truncated-file", "one-byte-tensor"])
def test_eval_bundle_error_names_the_file_once(request, prep_dir, tmp_path, capsys,
                                               bundle, corrupt, shows):
    bad = tmp_path / "bad.gtlm"
    corrupt(request.getfixturevalue(bundle), bad)
    rc = main(["eval", "--model-file", str(bad),
               "--test", str(prep_dir / "test.jsonl"), "--out-dir", str(tmp_path / "rep")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {shows}") and err.count("\n") == 1, err
    assert err.count(str(bad)) == 1


def test_eval_country_omits_distance_metrics(prep_dir, tmp_path):
    rc = main(["train", "--prep-dir", str(prep_dir), "--task", "country",
               "--model", "stacking", "--min-count", "3",
               "--out", str(tmp_path / "c.gtlm")])
    assert rc == 0
    rc = main(["eval", "--model-file", str(tmp_path / "c.gtlm"),
               "--test", str(prep_dir / "test.jsonl"), "--out-dir", str(tmp_path / "rep")])
    assert rc == 0
    summary = (tmp_path / "rep" / "metrics_summary.csv").read_text()
    assert "acc_at_161" not in summary and "median_error_km" not in summary


def test_eval_twice_is_byte_identical(cnn_bundle, prep_dir, tmp_path):
    for d in ("r1", "r2"):
        rc = main(["eval", "--model-file", str(cnn_bundle),
                   "--test", str(prep_dir / "test.jsonl"),
                   "--out-dir", str(tmp_path / d)])
        assert rc == 0
    for name in ("metrics_summary.csv", "per_class_pr.csv", "calibration.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


@pytest.mark.parametrize("bundle, chunk, noise", [
    pytest.param("cnn_bundle", None, [], id="cnn_bundle-None"),
    pytest.param("stack_bundle", 7, [], id="stack_bundle-7"),
    pytest.param("stack_bundle", 7, ["", "not-json"], id="stack_bundle-7-blank-and-malformed")])
def test_eval_scores_in_chunks_with_unchanged_output(request, prep_dir, tmp_path, monkeypatch,
                                                     bundle, chunk, noise):
    # more test records than one chunk, with any noise lines between them:
    # the reports equal those of scoring every record at once
    rows = (prep_dir / "test.jsonl").read_text().splitlines()
    lines = []
    while len(lines) < cli.PREDICT_CHUNK + 300:
        lines += rows + noise
    (tmp_path / "test.jsonl").write_text("\n".join(lines) + "\n")
    argv = ["eval", "--model-file", str(request.getfixturevalue(bundle)),
            "--test", str(tmp_path / "test.jsonl")]
    if chunk is not None:
        monkeypatch.setattr(cli, "PREDICT_CHUNK", chunk)
    sizes = []
    score = cli._probabilities
    monkeypatch.setattr(cli, "_probabilities",
                        lambda b, records: sizes.append(len(records)) or score(b, records))
    assert main(argv + ["--out-dir", str(tmp_path / "chunked")]) == 0
    n_bad = lines.count("not-json")
    assert max(sizes) == cli.PREDICT_CHUNK
    assert sum(sizes) == len(lines) - n_bad - lines.count("")
    summary = (tmp_path / "chunked" / "metrics_summary.csv").read_text()
    assert f"skipped,{float(n_bad)!r}" in summary.splitlines()
    monkeypatch.setattr(cli, "PREDICT_CHUNK", 10 ** 9)
    assert main(argv + ["--out-dir", str(tmp_path / "whole")]) == 0
    for name in ("metrics_summary.csv", "per_class_pr.csv", "calibration.csv"):
        assert (tmp_path / "chunked" / name).read_bytes() == \
            (tmp_path / "whole" / name).read_bytes()


def test_eval_task_mismatch_errors(cnn_bundle, prep_dir, tmp_path):
    rc = main(["eval", "--model-file", str(cnn_bundle), "--task", "country",
               "--test", str(prep_dir / "test.jsonl"), "--out-dir", str(tmp_path)])
    assert rc == 2


def test_predict_accounting_and_min_prob(cnn_bundle, prep_dir, tmp_path, capsys):
    test_file = prep_dir / "test.jsonl"
    n_rows = len(test_file.read_text().splitlines())
    out = tmp_path / "preds.jsonl"
    rc = main(["predict", "--model-file", str(cnn_bundle),
               "--input", str(test_file), "--out", str(out)])
    assert rc == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(rows) == n_rows   # all parse, none filtered
    for r in rows[:5]:
        assert len(r["ranked_labels"]) == 4   # only 4 city labels exist
        assert r["top_prob"] == pytest.approx(max(r["ranked_probs"]))

    rc = main(["predict", "--model-file", str(cnn_bundle),
               "--input", str(test_file), "--out", str(tmp_path / "high.jsonl"),
               "--min-prob", "0.9"])
    assert rc == 0
    kept = [json.loads(l) for l in (tmp_path / "high.jsonl").read_text().splitlines()]
    assert all(r["top_prob"] >= 0.9 for r in kept)
    assert len(kept) <= n_rows


@pytest.mark.parametrize("value", ["-0.1", "1.5", "nan"])
def test_predict_rejects_a_min_prob_outside_0_1(cnn_bundle, prep_dir, tmp_path, capsys, value):
    rc = main(["predict", "--model-file", str(cnn_bundle), "--input", str(prep_dir / "test.jsonl"),
               "--out", str(tmp_path / "preds.jsonl"), f"--min-prob={value}"])
    assert rc == 1
    assert "--min-prob must lie in [0, 1]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_predict_handles_malformed_and_empty(cnn_bundle, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"user_id": "u1", "text": "hi"}\nnot-json\n')
    out = tmp_path / "o.jsonl"
    rc = main(["predict", "--model-file", str(cnn_bundle), "--input", str(bad),
               "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 1   # one row skipped, one written

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    rc = main(["predict", "--model-file", str(cnn_bundle), "--input", str(empty),
               "--out", str(tmp_path / "eo.jsonl")])
    assert rc == 0
    assert (tmp_path / "eo.jsonl").read_text() == ""


def test_predict_skips_lines_with_a_malformed_bbox(cnn_bundle, prep_dir, tmp_path, capsys):
    rows = (prep_dir / "test.jsonl").read_text().splitlines()
    (tmp_path / "in.jsonl").write_text("\n".join(BAD_BBOX_LINES + rows) + "\n")
    capsys.readouterr()
    rc = main(["predict", "--model-file", str(cnn_bundle), "--input", str(tmp_path / "in.jsonl"),
               "--out", str(tmp_path / "o.jsonl")])
    assert rc == 0
    assert len((tmp_path / "o.jsonl").read_text().splitlines()) == len(rows)
    assert f"{len(BAD_BBOX_LINES)} skipped" in capsys.readouterr().out


@pytest.mark.parametrize("bundle, chunk", [("cnn_bundle", None), ("stack_bundle", 7)])
def test_predict_streams_in_chunks_with_unchanged_output(request, prep_dir, tmp_path, capsys,
                                                         monkeypatch, bundle, chunk):
    # more valid records than one chunk, with blank and malformed lines between
    # them; the output and summary equal those of scoring everything at once
    rows = (prep_dir / "test.jsonl").read_text().splitlines()
    lines = []
    while len(lines) < cli.PREDICT_CHUNK + 300:
        lines += rows + ["", "not-json"]
    (tmp_path / "in.jsonl").write_text("\n".join(lines) + "\n")
    argv = ["predict", "--model-file", str(request.getfixturevalue(bundle)),
            "--input", str(tmp_path / "in.jsonl"), "--min-prob", "0.5"]
    capsys.readouterr()
    if chunk is not None:
        monkeypatch.setattr(cli, "PREDICT_CHUNK", chunk)
    sizes = []
    score = cli._probabilities
    monkeypatch.setattr(cli, "_probabilities",
                        lambda b, records: sizes.append(len(records)) or score(b, records))
    assert main(argv + ["--out", str(tmp_path / "chunked.jsonl")]) == 0
    chunked_say = capsys.readouterr().out
    assert max(sizes) == cli.PREDICT_CHUNK and len(sizes) > 1
    monkeypatch.setattr(cli, "PREDICT_CHUNK", 10 ** 9)
    assert main(argv + ["--out", str(tmp_path / "whole.jsonl")]) == 0
    assert capsys.readouterr().out == chunked_say
    assert "skipped" in chunked_say and sizes[-1] == sum(sizes[:-1])
    assert (tmp_path / "chunked.jsonl").read_bytes() == (tmp_path / "whole.jsonl").read_bytes()


@pytest.mark.parametrize("knob", [["--share-filters", "false"], ["--config", "run.cfg"],
                                  ["--dropout", "0.5"], ["--alpha", "0.01"], ["--folds", "5"]],
                         ids=["share-filters", "config", "dropout", "alpha", "folds"])
def test_removed_knob_is_a_usage_error(prep_dir, tmp_path, capsys, knob):
    argv = ["train", "--prep-dir", str(prep_dir), "--task", "city", "--model", "cnn",
            "--out", str(tmp_path / "c.gtlm"), *CNN_FLAGS]
    assert main(argv + knob) == 1
    assert knob[0] in capsys.readouterr().err
    assert not (tmp_path / "c.gtlm").exists()


def _readme_commands() -> list[str]:
    """The commands of the README's "Command line" bash block, one string each."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def test_readme_commands_parse():
    parser = cli.build_parser()
    commands = _readme_commands()
    assert len(commands) >= 5
    for line in commands:
        argv = shlex.split(line)
        assert argv[0] == "tweetgeo", line
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_help_documents_all_defaults(capsys):
    assert main(["train", "--help"]) == 0
    text = capsys.readouterr().out
    for needle in ("1024", "128", "3,4,5", "0.001", "10"):
        assert needle in text
