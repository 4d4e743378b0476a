"""Command-line pipelines: prepare / train / eval / predict.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 internal error.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
import traceback
from collections import Counter
from itertools import islice
from pathlib import Path

import numpy as np

from . import bayes, columns, geo, ingest, metrics, textproc
from .cnn import (CnnConfig, DEFAULT_MAX_LENS, INFER_BATCH, VOCAB_FIELDS, encode_columns,
                  encode_features, init_model, load_pretrained_embeddings, predict_proba)
from .encode import CategoryMaps, build_category_maps
from .errors import DataError
from .labels import LABEL_FIELDS, TASK_CITY, TASK_COUNTRY, city_labels, country_labels
from .train import (CnnBundle, TrainConfig, load_bundle, save_model, save_stack_model,
                    train, write_train_log)

# `eval` and `predict` score this many valid records at a time: a multiple
# of predict_proba's batch, so the CNN batches are the same as for the whole
# input at once
PREDICT_CHUNK = 16 * INFER_BATCH

# glibc malloc's thresholds, fixed (mallopt's M_MMAP_THRESHOLD -3, M_TRIM_THRESHOLD -1).
# Left dynamic, the mmap threshold rises to the largest block freed so far, and freed
# blocks of that size, such as the CNN's (V, k) embedding gradients, stay in the heap
MALLOC_PIN = {-3: 8 << 20, -1: 8 << 20}


def _windows_arg(s: str) -> tuple:
    return tuple(int(x) for x in str(s).split(","))


def _min_count_arg(s: str) -> int:
    n = int(s)
    if n < 1:
        raise argparse.ArgumentTypeError(f"a frequency cutoff must be >= 1, got {n}")
    return n


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tweetgeo",
        description="Geolocation of short messages at country or city level.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="filter, dedup, assign cities, split, build vocab/maps")
    p.add_argument("--data", required=True, help="raw JSONL corpus")
    p.add_argument("--city-table", required=True, help="city CSV (id,name,lat,lon,country,population)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=ingest.SplitSpec.seed)
    p.add_argument("--test-fraction", type=float, default=ingest.SplitSpec.test_user_fraction,
                   help="fraction of users held out for test (default %(default)s)")
    p.add_argument("--dev-users", type=int, default=ingest.SplitSpec.dev_user_count,
                   help="users whose tweets form the dev set (default %(default)s)")
    p.add_argument("--min-count", type=_min_count_arg, default=textproc.MIN_COUNT,
                   help="vocabulary frequency cutoff (default %(default)s)")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model on a prepared directory")
    p.add_argument("--prep-dir", required=True, help="output directory of `prepare`")
    p.add_argument("--task", required=True, choices=(TASK_COUNTRY, TASK_CITY))
    p.add_argument("--model", required=True, choices=("cnn", "stacking", "stacking+"))
    p.add_argument("--out", required=True, help="model bundle path")
    p.add_argument("--log", help="per-epoch training log CSV (cnn only)")
    p.add_argument("--seed", type=int, default=TrainConfig.seed,
                   help="training seed (default %(default)s)")
    p.add_argument("--embed-dim", type=int, default=CnnConfig.embed_dim,
                   help="word vector dimension (default %(default)s)")
    # a string default goes through `type` too, and help shows it in the flag's form
    p.add_argument("--windows", type=_windows_arg, default=",".join(map(str, CnnConfig.windows)),
                   help="comma-separated filter window sizes (default %(default)s)")
    p.add_argument("--filters", type=int, default=CnnConfig.filters_per_window,
                   help="filters per window size (default %(default)s)")
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size,
                   help="mini-batch size (default %(default)s)")
    p.add_argument("--lr", type=float, default=TrainConfig.lr,
                   help="Adam learning rate (default %(default)s)")
    p.add_argument("--max-epochs", type=int, default=TrainConfig.max_epochs,
                   help="epoch budget (default %(default)s)")
    p.add_argument("--patience", type=int, default=TrainConfig.patience,
                   help="dev evaluations without improvement before stopping (default %(default)s)")
    for f, n in DEFAULT_MAX_LENS.items():
        p.add_argument(f"--max-len-{f.replace('_', '-')}", type=int, default=n,
                       help=f"token budget for the {f} field (default %(default)s)")
    p.add_argument("--vectors", help="pretrained embedding text file ('<count> <dim>' header)")
    p.add_argument("--igr-top-percent", type=float, default=None,
                   help="stacking+: keep this %% of tokens by information gain ratio (default "
                        + ", ".join(f"{v:g} for {t}" for t, v in bayes.IGR_DEFAULTS.items()) + ")")
    p.add_argument("--min-count", type=_min_count_arg, default=textproc.MIN_COUNT,
                   help="frequency cutoff for stacking base vocabularies (default %(default)s)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a model bundle on a labeled test split")
    p.add_argument("--model-file", required=True)
    p.add_argument("--test", required=True, help="labeled test JSONL")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--task", choices=(TASK_COUNTRY, TASK_CITY),
                   help="cross-check against the bundle's task")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="rank locations for unlabeled JSONL records")
    p.add_argument("--model-file", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-prob", type=float, default=None,
                   help="drop predictions whose winning probability is below this")
    p.set_defaults(func=cmd_predict)
    return parser


# ---------------------------------------------------------------------------
# commands

def cmd_prepare(ns) -> int:
    spec = ingest.SplitSpec(test_user_fraction=ns.test_fraction,
                            dev_user_count=ns.dev_users, seed=ns.seed)
    table = geo.load_city_table(ns.city_table)
    records, skipped = ingest.read_jsonl(ns.data)
    if not records:
        raise DataError(f"{ns.data}: no usable records")
    geo.assign_cities(records, table)
    deduped = ingest.dedup_user_city(records, seed=ns.seed)
    train_recs, dev_recs, test_recs = ingest.split_by_user(deduped, spec)

    out = Path(ns.out_dir)    # made only once the splits exist, so a failure leaves none
    out.mkdir(parents=True, exist_ok=True)
    ingest.write_jsonl(train_recs, out / "train.jsonl")
    ingest.write_jsonl(dev_recs, out / "dev.jsonl")
    ingest.write_jsonl(test_recs, out / "test.jsonl")
    geo.save_city_table(table, out / "cities.csv")

    # each train and dev record is tokenized once, into the token columns that
    # `train` reads; vocab.txt and the category maps count the training split's ids
    columns.save_columns(columns.token_columns(dev_recs), out, "dev")
    cols = columns.token_columns(train_recs)
    columns.save_columns(cols, out, "train")
    ids = np.concatenate([cols.base(f)[1] for f in VOCAB_FIELDS])
    vocab = textproc.build_vocab(cols.tokens, ids, min_count=ns.min_count)
    textproc.save_vocab(vocab, out / "vocab.txt")

    maps = build_category_maps(cols)
    (out / "category_maps.json").write_text(
        json.dumps(maps.value_lists(), ensure_ascii=False, sort_keys=True, indent=1),
        encoding="utf-8")

    stats = ingest.dataset_stats(deduped)
    with open(out / "stats.csv", "w", encoding="utf-8") as f:
        f.write("stat,value\n")
        for k, v in vars(stats).items():
            f.write(f"{k},{v!r}\n")
    print(f"prepare: {len(records)} parsed (+{skipped} skipped), {len(deduped)} after dedup -> "
          f"train {len(train_recs)} / dev {len(dev_recs)} / test {len(test_recs)}; "
          f"vocab {len(vocab)}")
    return 0


def _prep_file(prep: Path, name: str) -> Path:
    path = prep / name
    if not path.exists():
        raise DataError(f"{path} missing; run `tweetgeo prepare` first")
    return path


def cmd_train(ns) -> int:
    cnn = ns.model == "cnn"
    if ns.igr_top_percent is not None and ns.model != "stacking+":
        raise ValueError(f"--igr-top-percent applies only to --model stacking+, not {ns.model}")
    if ns.vectors is not None and not cnn:
        raise ValueError(f"--vectors applies only to --model cnn, not {ns.model}")
    # a bad output path is found before the fit, not after it
    for out in (ns.out, ns.log if cnn else None):
        if out is not None and not Path(out).parent.is_dir():
            raise DataError(f"{out}: {Path(out).parent} is not a directory")
    prep = Path(ns.prep_dir)
    # the token columns of each split the model reads; a JSONL only for its checksum
    for split in ("train", "dev") if cnn else ("train",):
        for name in (f"{split}.jsonl", *columns.files(split)):
            _prep_file(prep, name)
    cols = columns.load_columns(prep, "train")
    if len(cols) == 0:
        raise DataError(f"{prep / 'train.jsonl'}: no usable records")
    values, codes = cols.labels[LABEL_FIELDS[ns.task]]
    labels = (city_labels(geo.load_city_table(_prep_file(prep, "cities.csv")))
              if ns.task == TASK_CITY else country_labels(values, codes))
    y = labels.code_array(values, codes, prep / "train.jsonl")
    if not cnn:
        return _train_stacking(ns, cols, labels, y)
    dev = columns.load_columns(prep, "dev")
    # a dev label outside the table is -1: a class unseen in training counts as a miss
    y_dev = labels.code_array(*dev.labels[labels.field], prep / "dev.jsonl", strict=False)
    vocab = textproc.load_vocab(_prep_file(prep, "vocab.txt"))
    maps_path = _prep_file(prep, "category_maps.json")
    try:
        maps = CategoryMaps.from_value_lists(json.loads(maps_path.read_text(encoding="utf-8")))
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"{maps_path}: bad category maps: {e!r}") from e
    ccfg = CnnConfig(embed_dim=ns.embed_dim, windows=ns.windows, filters_per_window=ns.filters,
                     label_count=len(labels),
                     max_lens={f: getattr(ns, f"max_len_{f}") for f in DEFAULT_MAX_LENS})
    tcfg = TrainConfig(batch_size=ns.batch_size, max_epochs=ns.max_epochs,
                       patience=ns.patience, seed=ns.seed, lr=ns.lr)
    train_feats = encode_columns(cols, vocab, maps, ccfg, y)
    dev_feats = encode_columns(dev, vocab, maps, ccfg, y_dev)
    del cols, dev, codes    # unmapped: the fit reads only the encoded features
    model = init_model(ccfg, len(vocab), maps.block_size, seed=tcfg.seed)
    if ns.vectors is not None:
        load_pretrained_embeddings(model, ns.vectors, vocab)
    result = train(model, train_feats, dev_feats, tcfg)
    save_model(model, vocab, maps, labels, ns.out)
    if ns.log:
        write_train_log(ns.log, result.log)
    print(f"train: cnn task={ns.task} best dev acc {result.best_dev_accuracy:.4f} "
          f"at epoch {result.best_epoch}; bundle -> {ns.out}")
    return 0


def _train_stacking(ns, cols, labels, y) -> int:
    igr = None if ns.model == "stacking" else (
        bayes.IGR_DEFAULTS[ns.task] if ns.igr_top_percent is None else ns.igr_top_percent)
    model = bayes.fit_stacking(cols, y, len(labels), igr_percent=igr, min_count=ns.min_count)
    save_stack_model(model, labels, ns.out)
    print(f"train: {ns.model} task={ns.task} folds={bayes.FOLDS} "
          f"igr={igr if igr is not None else '-'}; bundle -> {ns.out}")
    return 0


def _probabilities(b, records) -> np.ndarray:
    if isinstance(b, CnnBundle):
        feats = encode_features(records, b.vocab, b.maps, b.model.config)
        return predict_proba(b.model, feats)
    return bayes.posterior_stacking(b.model, records)


def _scored_chunks(b, model_file, f, counts: Counter, require_coords: bool):
    """Yield the valid records of a binary JSONL file PREDICT_CHUNK at a time,
    each chunk with its probabilities; counts["skipped"] counts the other lines.
    A chunk whose probabilities are not all finite is a DataError naming the
    bundle `model_file`, raised before the caller sees the chunk."""
    valid = ingest.iter_jsonl(f, counts, require_coords)
    while chunk := list(islice(valid, PREDICT_CHUNK)):
        # overflow shows as a non-finite probability, reported just below
        with np.errstate(over="ignore", invalid="ignore"):
            probs = _probabilities(b, chunk)
        if not np.isfinite(probs).all():
            raise DataError(f"{model_file}: the model scores non-finite probabilities; "
                            "its weights overflow")
        yield chunk, probs


def cmd_eval(ns) -> int:
    b = load_bundle(ns.model_file)
    if ns.task and ns.task != b.labels.task:
        raise DataError(f"bundle was trained for task {b.labels.task!r}, not {ns.task!r}")
    city = b.labels.task == TASK_CITY    # only city metrics read the true coordinates
    counts, parts = Counter(), []
    # a chunk's records and probabilities are dropped once its top five are ranked
    with open(ns.test, "rb") as f:
        for records, probs in _scored_chunks(b, ns.model_file, f, counts, require_coords=city):
            parts.append(metrics.rank(probs, b.labels.label_array(records, ns.test),
                                      [(r.lat, r.lon) for r in records] if city else None))
    if not parts:
        raise DataError(f"{ns.test}: no usable records")
    pred = metrics.concat(parts)
    rows = [("n_test", float(len(pred.ranked))), ("skipped", float(counts["skipped"])),
            ("accuracy", metrics.accuracy(pred)), ("acc_top5", metrics.acc_top5(pred))]
    if city:
        coords = b.labels.coords_array()
        rows.append(("acc_at_161", metrics.acc_at_161(pred, coords)))
        rows.append(("median_error_km", metrics.median_error_km(pred, coords)))
    bins = metrics.calibration_bins(pred)
    rows.append(("ece", metrics.expected_calibration_error(bins)))
    out = Path(ns.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics.write_metrics_summary(out / "metrics_summary.csv", rows)
    metrics.write_per_class_pr(out / "per_class_pr.csv",
                               metrics.per_class_pr(pred, len(b.labels)),
                               label_names=b.labels.values)
    metrics.write_calibration(out / "calibration.csv", bins)
    print("eval: " + "  ".join(f"{k}={v:.4f}" for k, v in rows))
    return 0


def cmd_predict(ns) -> int:
    if ns.min_prob is not None and not 0.0 <= ns.min_prob <= 1.0:
        raise ValueError(f"--min-prob must lie in [0, 1], got {ns.min_prob}")
    b = load_bundle(ns.model_file)
    counts = Counter()
    # the input is opened first, so an input that cannot be read leaves no output
    with open(ns.input, "rb") as fin:
        if os.path.exists(ns.out) and os.path.samestat(os.fstat(fin.fileno()), os.stat(ns.out)):
            raise ValueError(f"--out {ns.out} is the --input file")
        with open(ns.out, "w", encoding="utf-8") as fout:
            for records, probs in _scored_chunks(b, ns.model_file, fin, counts,
                                                 require_coords=False):
                top5 = metrics.ranked_top5(probs)
                for r, ranked, rp in zip(records, top5.tolist(),
                                         np.take_along_axis(probs, top5, axis=1).tolist()):
                    if ns.min_prob is not None and rp[0] < ns.min_prob:
                        counts["filtered"] += 1
                        continue
                    row = {"user_id": r.user_id,
                           "ranked_labels": [b.labels.values[i] for i in ranked],
                           "ranked_probs": rp, "top_prob": rp[0]}
                    fout.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")
                    counts["written"] += 1
    print(f"predict: {counts['written']} written, {counts['filtered']} below min-prob, "
          f"{counts['skipped']} skipped")
    return 0


def pin_malloc() -> None:
    """Apply MALLOC_PIN where the C library has mallopt, as glibc does."""
    if os.name != "posix" or not hasattr(libc := ctypes.CDLL(None), "mallopt"):
        return
    libc.mallopt.argtypes, libc.mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in MALLOC_PIN.items():
        libc.mallopt(param, value)


def main(argv=None) -> int:
    pin_malloc()
    try:
        ns = build_parser().parse_args(argv)
        return ns.func(ns)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    except (OSError, ValueError) as e:   # a DataError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, (DataError, OSError)) else 1
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
