#!/usr/bin/env python3
"""From raw JSONL to train/dev/test splits.

Generates a synthetic corpus, then runs the data pipeline: parse + filter,
nearest-city assignment, one-tweet-per-(user, city) dedup, user-disjoint
splitting, and the corpus statistics report.
"""

import tempfile
from pathlib import Path

from tweetgeo.geo import assign_cities, load_city_table
from tweetgeo.ingest import SplitSpec, dataset_stats, dedup_user_city, read_jsonl, split_by_user
from tweetgeo.synth import SynthSpec, write_corpus

with tempfile.TemporaryDirectory(prefix="tweetgeo_demo_") as tmp:
    workdir = Path(tmp)
    spec = SynthSpec(n_cities=6, n_countries=3, n_users=800,
                     tweets_per_user=(1, 3), seed=42)
    write_corpus(spec, workdir / "raw.jsonl", workdir / "cities.csv")
    print(f"wrote synthetic corpus under {workdir}")

    records, skipped = read_jsonl(workdir / "raw.jsonl")
    print(f"\nparsed {len(records)} records, skipped {skipped}")

    table = load_city_table(workdir / "cities.csv")
assign_cities(records, table)
deduped = dedup_user_city(records, seed=7)
print(f"after one-per-(user, city) dedup: {len(deduped)}")

train, dev, test = split_by_user(deduped, SplitSpec(
    test_user_fraction=0.10, dev_user_count=80, seed=7))
print(f"user-disjoint splits: train {len(train)} / dev {len(dev)} / test {len(test)}")

stats = dataset_stats(deduped)
print("\ncorpus statistics:")
for k, v in vars(stats).items():
    print(f"  {k:26s} {v}")
