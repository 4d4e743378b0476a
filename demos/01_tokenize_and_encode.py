#!/usr/bin/env python3
"""Tokenizing tweets and turning them into model inputs.

Walks through the tweet-aware tokenizer, vocabulary construction with a
frequency cutoff, 10-minute posting-time slots, the categorical maps, and one
record encoded as the CNN reads it: fixed-length token ids per field and the
four active positions of the categorical one-hot block.
"""

from tweetgeo.cnn import CnnConfig, encode_features
from tweetgeo.columns import token_columns
from tweetgeo.encode import build_category_maps, categorical_tokens, time_slot
from tweetgeo.ingest import Record
from tweetgeo.textproc import build_vocab, tokenize

samples = [
    "Just landed in NYC!! @anna check https://t.co/abc #travel",
    "Sooooo happy about the #NYC marathon :)",
    "monday again... coffee coffee coffee",
]

print("== tokenizer ==")
for s in samples:
    print(f"  {s!r}\n    -> {tokenize(s)}")

print("\n== vocabulary (min_count=2) ==")
# each record tokenized once into token columns: one dictionary of its
# tokens, in code-point order, and each field's token ids into it
cols = token_columns([Record(user_id=f"s{i}", text=s) for i, s in enumerate(samples)])
vocab = build_vocab(cols.tokens, cols.base("text")[1], min_count=2)
print(f"  kept {len(vocab)} entries: {vocab.index_to_token}")

print("\n== posting-time slots (144 per day) ==")
for hhmm, secs in [("00:00", 0), ("09:15", 9 * 3600 + 15 * 60), ("23:59", 86399)]:
    print(f"  {hhmm} UTC -> slot {time_slot(secs)}")

print("\n== categorical maps ==")
train = [
    Record(user_id="u1", tweet_lang="en", user_lang="en", timezone="EST", posted_at=0),
    Record(user_id="u2", tweet_lang="en", user_lang="fr", timezone="CET", posted_at=0),
    Record(user_id="u3", tweet_lang="ja", user_lang="ja", timezone="JST", posted_at=0),
]
maps = build_category_maps(token_columns(train))
print(f"  sizes (TL, UL, TZ): {maps.sizes}, one-hot block size {maps.block_size}")

print("\n== one record as CNN inputs (text max_len=8) ==")
probe = Record(user_id="u9", text="Coffee again!", tweet_lang="en", user_lang="xx", timezone="JST",
               posted_at=9 * 3600 + 15 * 60)
cfg = CnnConfig(max_lens={"text": 8, "user_description": 5, "profile_location": 5,
                          "user_name": 5})
feats = encode_features([probe], vocab, maps, cfg)
print(f"  {tokenize(probe.text)}\n    -> {feats.tokens['text'][0].tolist()}"
      "  (1 = unknown, 0 = padding)")
print(f"  categorical tokens {categorical_tokens(probe)}")
print(f"    -> one-hot positions {feats.cat_positions[0].tolist()}"
      "  (the unseen user_lang takes its map's index 0)")
