#!/usr/bin/env python3
"""The stacked naive-Bayes baselines.

Five multinomial NB base classifiers (one per text field plus one over the
categorical features as synthetic tokens) produce out-of-fold predictions
over `bayes.FOLDS` (5) folds; a meta NB combines their votes. Every NB of the
stack smooths with `bayes.ALPHA` (0.01). The feature-selected variant prunes
each text vocabulary to the top tokens by information gain ratio first.
"""

import numpy as np

from tweetgeo.bayes import (base_tokens, count_matrix, fit_mnb, fit_stacking,
                            igr_scores, posterior_stacking, predict_mnb)
from tweetgeo.columns import token_columns
from tweetgeo.geo import assign_cities
from tweetgeo.labels import city_labels
from tweetgeo.synth import SynthSpec, generate
from tweetgeo.textproc import build_vocab

records, table = generate(SynthSpec(n_cities=4, n_countries=2, n_users=900, seed=13))
assign_cities(records, table)
labels = city_labels(table)
y = labels.label_array(records)
split = int(0.8 * len(records))
tr, te = records[:split], records[split:]
ytr, yte = y[:split], y[split:]
print(f"train {len(tr)} / test {len(te)} tweets, {len(labels)} city labels")

print("\n== a single multinomial NB base on the tweet text ==")
tokens = [base_tokens(r, "text") for r in tr]
vocab = build_vocab(tokens, min_count=3)
counts = count_matrix(tokens, vocab)
base = fit_mnb(counts, ytr, len(labels), alpha=1e-2)
te_counts = count_matrix([base_tokens(r, "text") for r in te], vocab)
acc = float(np.mean(predict_mnb(base, te_counts) == yte))
print(f"  text-only NB accuracy: {acc:.4f} (vocabulary {len(vocab)})")

print("\n== information gain ratio ranking ==")
scores = igr_scores(counts, ytr, len(labels))
order = np.argsort(-scores)
print("  most informative tokens:")
for i in order[:5]:
    print(f"    {vocab.index_to_token[i]:12s} igr {scores[i]:.3f}")

print("\n== STACKING vs STACKING+ ==")
for name, igr in (("STACKING", None), ("STACKING+ (top 40%)", 40.0)):
    model = fit_stacking(token_columns(tr), ytr, len(labels), igr_percent=igr, min_count=3)
    post = posterior_stacking(model, te)
    acc = float(np.mean(np.argmax(post, axis=1) == yte))
    print(f"  {name:20s} accuracy {acc:.4f}")

r = te[0]
post = posterior_stacking(model, [r])[0]
label = int(np.argmax(post))
print(f"\none record through the stack: predicted city id "
      f"{labels.values[label]}, posterior max {post.max():.3f}, "
      f"true city id {r.city_id}")
