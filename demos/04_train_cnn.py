#!/usr/bin/env python3
"""Training the convolutional classifier end to end.

Builds a small city-level model on synthetic data: shared filter banks over
four text fields, max-over-time pooling, dropout, categorical one-hots, and
a softmax head, trained with hand-written backprop + Adam and early stopping
on dev accuracy. Finishes with the four evaluation metrics and the
calibration table.
"""

import numpy as np

from tweetgeo.cnn import (VOCAB_FIELDS, CnnConfig, encode_columns, encode_features,
                          init_model, predict_proba)
from tweetgeo.columns import token_columns
from tweetgeo.encode import build_category_maps
from tweetgeo.geo import assign_cities
from tweetgeo.ingest import SplitSpec, dedup_user_city, split_by_user
from tweetgeo.labels import city_labels
from tweetgeo.metrics import (acc_at_161, acc_top5, accuracy, calibration_bins,
                              expected_calibration_error, median_error_km, rank)
from tweetgeo.synth import SynthSpec, generate
from tweetgeo.textproc import build_vocab
from tweetgeo.train import TrainConfig, train

records, table = generate(SynthSpec(n_cities=5, n_countries=2, n_users=1500, seed=3))
assign_cities(records, table)
records = dedup_user_city(records, seed=3)
tr, dev, te = split_by_user(records, SplitSpec(0.15, 100, seed=3))
print(f"splits: train {len(tr)} / dev {len(dev)} / test {len(te)}")

cols = token_columns(tr)   # the training split tokenized once, as `prepare` writes it
vocab = build_vocab(cols.tokens, np.concatenate([cols.base(f)[1] for f in VOCAB_FIELDS]),
                    min_count=5)
maps = build_category_maps(cols)
labels = city_labels(table)
print(f"vocabulary {len(vocab)} entries, one-hot block {maps.block_size}, "
      f"{len(labels)} city labels")

cfg = CnnConfig(embed_dim=32, windows=(2, 3, 4), filters_per_window=24,
                dropout_rate=0.5, label_count=len(labels),
                max_lens={"text": 12, "user_description": 12,
                          "profile_location": 6, "user_name": 4})
tcfg = TrainConfig(batch_size=64, max_epochs=12, patience=3, seed=3)
# one seed drives the initial weights, the shuffles and the dropout masks
model = init_model(cfg, len(vocab), maps.block_size, seed=tcfg.seed)
result = train(
    model,
    encode_columns(cols, vocab, maps, cfg, labels.label_array(tr)),
    encode_features(dev, vocab, maps, cfg, labels.label_array(dev)),
    tcfg)

print("\nepoch  loss     dev_acc")
for row in result.log:
    print(f"  {row.epoch:3d}  {row.train_loss:.4f}  {row.dev_accuracy:.4f}")
print(f"best dev accuracy {result.best_dev_accuracy:.4f} at epoch {result.best_epoch}")

feats = encode_features(te, vocab, maps, cfg)
preds = rank(predict_proba(model, feats), labels.label_array(te),
             [(r.lat, r.lon) for r in te])
coords = labels.coords_array()
print(f"\ntest metrics on {len(te)} tweets:")
print(f"  accuracy        {accuracy(preds):.4f}")
print(f"  acc@top5        {acc_top5(preds):.4f}")
print(f"  acc@161km       {acc_at_161(preds, coords):.4f}")
print(f"  median error    {median_error_km(preds, coords):.1f} km")

print("\ncalibration over the winning probability:")
print("  bin          tweets  accuracy  mean confidence")
bins = calibration_bins(preds)
for lo, hi, frac, acc, conf in bins:
    if frac:
        print(f"  [{lo:.1f}, {hi:.1f})  {frac:6.1%}  {acc:.4f}    {conf:.4f}")
print(f"  expected calibration error {expected_calibration_error(bins):.4f}")
