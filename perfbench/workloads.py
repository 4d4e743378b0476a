"""Workload specifications and seeded input generation for the benchmark.

Every corpus is ``tweetgeo.synth.generate`` (120 cities, one tweet per user,
city frequencies Zipf with the workload's exponent), post-processed here:

* **Noisy signatures.** Each city-indicative token (``sig<c>w<j>``,
  ``loc<c>``, ``tz<c>``) moves to a neighbouring city with probability
  ``CONFUSE``, so the task is no longer exactly solvable.
* **Duplicates and malformed lines** (``ingest-predict`` only): repeated
  (user, city) tweets for dedup to remove, and planted lines that every
  reader must skip.

The same seed gives byte-identical files; ``input_digest`` hashes them.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tweetgeo import geo, ingest, synth

N_CITIES = 120
N_COUNTRIES = 10
CONFUSE = 0.25   # chance that a city-indicative token moves to a neighbouring city

_SIG_RE = re.compile(r"\bsig(\d+)w(\d+)\b")
_LOC_RE = re.compile(r"\bloc(\d+)\b")
_TZ_RE = re.compile(r"^tz(\d+)$")


@dataclass(frozen=True)
class CorpusSpec:
    tweets: int                       # one user each
    noise_vocab: int
    tokens_per_field: tuple[int, int]
    class_skew: float = 1.0           # Zipf exponent of the city frequencies
    duplicate_share: float = 0.0      # share of tweets that get a second one
    malformed_share: float = 0.0      # planted bad lines per valid line


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: CorpusSpec
    setup_stages: tuple[str, ...]     # run before timing, their times feed setup_s
    timed_stages: tuple[str, ...]     # one closed-loop iteration
    iteration_s: float                # one timed iteration on the reference box
    stage_args: dict = field(default_factory=dict)   # stage -> extra argv
    predict_test_split: bool = False  # predict scores the test split, not raw.jsonl


# Sizes are set so that one run of each workload, set-up included, takes
# 30-50 s at --seconds 30 on a 2-vCPU box, so 22 runs of each fit in an hour.

# The CNN at paper dimensions (k=300, windows 3/4/5 x 128 filters, field
# lengths 50/50/10/5, ~24k-word vocabulary) for a fixed budget of 6 steps
# (2 epochs, never early-stopped) of batch 256 rather than 1024: at 1024 one
# train stage peaks at 3.4 GB. Conv forward/backward, Adam over the embedding
# and the cached activations do almost all the work. With Zipf exponent 1.5
# and lr 0.01 the 6-step model clearly beats a model that predicts only the
# class prior (accuracy ~0.8 against ~0.45, top-5 ~0.86 against ~0.74), which
# check_eval requires; 3 steps did not beat the prior's top-5 on every seed.
CNN_PAPER = Workload(
    name="cnn-paper",
    corpus=CorpusSpec(tweets=1100, noise_vocab=200_000, tokens_per_field=(20, 48),
                      class_skew=1.5),
    setup_stages=("prepare",),
    timed_stages=("train", "eval", "predict"),
    iteration_s=23.0,
    stage_args={
        "prepare": ["--dev-users", "40", "--min-count", "1", "--test-fraction", "0.27"],
        "train": ["--model", "cnn", "--batch-size", "256", "--lr", "0.01",
                  "--max-epochs", "2", "--patience", "2"],
    },
    predict_test_split=True,
)

# STACKING+ (IGR 40%) on a corpus that is not saturated (accuracy ~0.93):
# dense count matrices, the fold fits and the per-token IGR loop dominate;
# the CNN layers do no work.
STACK_CITY = Workload(
    name="stack-city",
    corpus=CorpusSpec(tweets=5000, noise_vocab=3000, tokens_per_field=(4, 12)),
    setup_stages=(),
    timed_stages=("prepare", "train", "eval", "predict"),
    iteration_s=13.0,
    stage_args={
        "prepare": ["--dev-users", "40", "--min-count", "2"],
        "train": ["--model", "stacking+", "--igr-top-percent", "40", "--min-count", "2"],
    },
)

# Raw JSONL with repeated (user, city) tweets and 2% planted bad lines:
# parsing, assign_cities, dedup, tokenizing, JSONL writing and top-5 output
# dominate. The bundle is a desk-size CNN (k=32, 32 filters) trained in
# set-up, so the CNN forward runs in inference mode on a small model.
INGEST_PREDICT = Workload(
    name="ingest-predict",
    corpus=CorpusSpec(tweets=4000, noise_vocab=2000, tokens_per_field=(4, 9),
                      duplicate_share=0.15, malformed_share=0.02),
    setup_stages=("prepare", "train"),
    timed_stages=("prepare", "predict", "eval"),
    iteration_s=9.0,
    stage_args={
        "prepare": ["--dev-users", "200", "--min-count", "2"],
        "train": ["--model", "cnn", "--embed-dim", "32", "--filters", "32",
                  "--batch-size", "64", "--lr", "0.01", "--max-epochs", "1",
                  "--patience", "1"],
    },
)

WORKLOADS = {w.name: w for w in (CNN_PAPER, STACK_CITY, INGEST_PREDICT)}


def stage_argv(stage: str, w: Workload, inputs: Path, prep: Path, bundle: Path,
               out: Path) -> list[str]:
    """Full `tweetgeo` argument list for one stage of a workload."""
    bundle = str(bundle)
    if stage == "prepare":
        base = ["prepare", "--data", str(inputs / "raw.jsonl"),
                "--city-table", str(inputs / "cities.csv"), "--out-dir", str(prep),
                "--seed", "0"]
    elif stage == "train":
        base = ["train", "--prep-dir", str(prep), "--task", "city", "--out", bundle,
                "--log", str(out / "train_log.csv"), "--seed", "0"]
    elif stage == "eval":
        base = ["eval", "--model-file", bundle, "--test", str(prep / "test.jsonl"),
                "--out-dir", str(out / "eval"), "--task", "city"]
    elif stage == "predict":
        src = prep / "test.jsonl" if w.predict_test_split else inputs / "raw.jsonl"
        base = ["predict", "--model-file", bundle, "--input", str(src),
                "--out", str(out / "predictions.jsonl")]
    else:
        raise ValueError(f"unknown stage {stage!r}")
    return base + list(w.stage_args.get(stage, ()))


def iterations(w: Workload, seconds: float) -> int:
    """Timed iterations (or traced rounds) for a run of about `seconds`.

    The count comes from the workload's nominal iteration length rather than
    from a clock, so every run of a workload takes the same number of samples:
    a stage run varies by ~10% on a 2-vCPU VM, and a clock-driven loop near an
    iteration boundary would give some runs one sample fewer than others."""
    return max(1, round(seconds / w.iteration_s))


# ---------------------------------------------------------------------------
# input generation

def _derived_seed(*parts) -> int:
    payload = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


def _confuse(r: ingest.Record, rng) -> None:
    """Move each city-indicative token of r to a neighbouring city with
    probability CONFUSE."""
    def city(m) -> int:
        c = int(m.group(1))
        if rng.random() < CONFUSE:
            c = (c + (1 if rng.random() < 0.5 else -1)) % N_CITIES
        return c

    def sig(m):
        return f"sig{city(m)}w{m.group(2)}"

    r.text = _SIG_RE.sub(sig, r.text)
    r.user_description = _SIG_RE.sub(sig, r.user_description)
    r.profile_location = _LOC_RE.sub(lambda m: f"loc{city(m)}", r.profile_location)
    r.timezone = _TZ_RE.sub(lambda m: f"tz{city(m)}", r.timezone)


_MALFORMED_KINDS = ("truncated", "lat_out_of_range", "no_user", "negative_time")


def _malformed(line: str, kind: str) -> str:
    obj = json.loads(line)
    if kind == "truncated":
        return line[: len(line) // 2]
    if kind == "lat_out_of_range":
        obj["lat"] = 95.5
    elif kind == "no_user":
        obj["user_id"] = ""
    else:
        obj["posted_at"] = -60
    return json.dumps(obj, ensure_ascii=False, sort_keys=True)


@dataclass
class Inputs:
    planted_malformed: int  # lines every reader must skip
    valid_users: list       # user_id of each line every reader accepts, in file order


def write_inputs(w: Workload, seed: int, out: Path) -> Inputs:
    """Write raw.jsonl and cities.csv for one workload and seed into out."""
    spec = w.corpus
    rng = np.random.default_rng(_derived_seed(seed, w.name, "post"))
    tweets, table = synth.generate(synth.SynthSpec(
        n_cities=N_CITIES, n_countries=N_COUNTRIES, noise_vocab_size=spec.noise_vocab,
        tokens_per_field=spec.tokens_per_field, n_users=spec.tweets,
        class_skew=spec.class_skew, seed=_derived_seed(seed, w.name)))

    records = []
    for i, r in enumerate(tweets):
        _confuse(r, rng)
        records.append(r)
        if rng.random() < spec.duplicate_share:
            toks = r.text.split()
            records.append(ingest.Record(**{**vars(r), "text": " ".join(reversed(toks)),
                                            "posted_at": r.posted_at + 600 * (1 + i % 5)}))

    lines = [ingest.record_to_json(r) for r in records]
    n_bad = round(spec.malformed_share * len(lines))
    if n_bad:
        where = np.sort(rng.choice(len(lines), size=n_bad, replace=False))
        for k, pos in enumerate(where[::-1]):
            lines.insert(int(pos), _malformed(lines[int(pos)], _MALFORMED_KINDS[k % 4]))

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "raw.jsonl", "w", encoding="utf-8") as f:
        f.writelines(line + "\n" for line in lines)
    geo.save_city_table(table, out / "cities.csv")
    return Inputs(planted_malformed=n_bad, valid_users=[r.user_id for r in records])


def input_digest(directory: Path) -> str:
    """sha256 over the generated input files, in name order."""
    h = hashlib.sha256()
    for name in ("raw.jsonl", "cities.csv"):
        h.update(name.encode())
        h.update((directory / name).read_bytes())
    return h.hexdigest()
