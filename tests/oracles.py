"""Independent reference implementations used as test oracles.

Everything here is written with plain python loops and the math module (or
exact Fractions), deliberately avoiding the library's own code paths. The
exceptions are the references at the end: the dense naive Bayes code that
the sparse counts replaced, the im2col CNN forward and backward and the
out-of-place Adam that the distinct-token convolution and the in-place update
replaced, the match-by-match tokenizer that the one-pass tokenizer
replaced, the per-record CNN encoder that the token-column encoder
replaced, the synthetic corpus generator that drew each value through a
numpy scalar call before `synth.generate` read the raw words in bulk, and
the string-keyed rankings (vocabularies, the IGR cut, category maps) that
`textproc.ranked` over token ids replaced.
"""

import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np

from tweetgeo import nncore
from tweetgeo.bayes import CsrCounts
from tweetgeo.cnn import FIELDS
from tweetgeo.encode import UNK_CAT, CategoryMaps
from tweetgeo.geo import CityTable
from tweetgeo.ingest import CATEGORICAL_FIELDS, Record
from tweetgeo.synth import (_DAY, _EPOCH_BASE, SIGNATURE_FIELD_PROBS, SIGNATURE_TOKENS_PER_CITY,
                            SynthSpec, city_grid)
from tweetgeo.textproc import PAD_TOKEN, UNK_TOKEN, URL_SENTINEL, USER_SENTINEL, Vocabulary

EARTH_R = 6371.0


def haversine_oracle_km(a, b):
    la1, lo1 = math.radians(a[0]), math.radians(a[1])
    la2, lo2 = math.radians(b[0]), math.radians(b[1])
    h = math.sin((la2 - la1) / 2) ** 2 \
        + math.cos(la1) * math.cos(la2) * math.sin((lo2 - lo1) / 2) ** 2
    return 2 * EARTH_R * math.asin(math.sqrt(h))


def law_of_cosines_km(a, b):
    la1, lo1 = math.radians(a[0]), math.radians(a[1])
    la2, lo2 = math.radians(b[0]), math.radians(b[1])
    c = math.sin(la1) * math.sin(la2) + math.cos(la1) * math.cos(la2) * math.cos(lo2 - lo1)
    return EARTH_R * math.acos(max(-1.0, min(1.0, c)))


def nearest_scan(point, cities):
    """cities: iterable of (city_id, lat, lon); exhaustive argmin, ties to
    the smallest city_id."""
    best_id, best_d = None, None
    for cid, lat, lon in sorted(cities):
        d = haversine_oracle_km(point, (lat, lon))
        if best_d is None or d < best_d:
            best_id, best_d = cid, d
    return best_id


def entropy_bits(counts):
    total = sum(counts)
    h = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            h -= p * math.log2(p)
    return h


def igr_oracle(present, docs):
    """present/docs: per-class token-present and document counts."""
    n = sum(docs)
    n_p = sum(present)
    n_a = n - n_p
    if n_p == 0 or n_a == 0:
        return 0.0
    absent = [d - p for d, p in zip(docs, present)]
    ig = entropy_bits(docs) - (n_p / n) * entropy_bits(present) \
        - (n_a / n) * entropy_bits(absent)
    iv = entropy_bits([n_p, n_a])
    return ig / iv if iv > 0 else 0.0


def mnb_posterior_exact(class_docs, doc, alpha):
    """Exact Bayes posterior with additive smoothing.

    class_docs: per class, a list of documents, each a list of feature counts
    (fixed feature order). doc: feature count list. Returns floats.
    """
    alpha = Fraction(alpha).limit_denominator(10**9)
    n_docs = sum(len(d) for d in class_docs)
    n_feat = len(doc)
    joints = []
    for docs in class_docs:
        prior = Fraction(len(docs), n_docs)
        feat_counts = [sum(d[f] for d in docs) for f in range(n_feat)]
        denom = sum(feat_counts) + alpha * n_feat
        like = Fraction(1)
        for f in range(n_feat):
            like *= ((feat_counts[f] + alpha) / denom) ** doc[f]
        joints.append(prior * like)
    z = sum(joints)
    return [float(j / z) for j in joints]


def metrics_scan(rows, label_count):
    """Accuracy, top-5 accuracy, per-class (label, precision, recall, support)
    rows, 10 calibration rows with each bin's mean winning probability, and
    the expected calibration error, one record at a time. A bin's winning
    probabilities are summed exactly (math.fsum), so no order of the rows
    can round them differently. rows holds (true label or -1, labels ranked
    best first, winning probability)."""
    n = len(rows)
    hits = [ranked[0] == t for t, ranked, _ in rows]
    tp, pred_n, support = [0] * label_count, [0] * label_count, [0] * label_count
    count, correct, tops = [0] * 10, [0] * 10, [[] for _ in range(10)]
    for (t, ranked, top), hit in zip(rows, hits):
        pred_n[ranked[0]] += 1
        if 0 <= t < label_count:
            support[t] += 1
            tp[t] += hit
        b = sum(top >= k / 10 for k in range(1, 10))
        count[b] += 1
        correct[b] += hit
        tops[b].append(top)
    confidence = [math.fsum(t) for t in tops]
    pr = [(c, tp[c] / pred_n[c] if pred_n[c] else 0.0,
           tp[c] / support[c] if support[c] else 0.0, support[c]) for c in range(label_count)]
    cal = [(round(b * 0.1, 10), round((b + 1) * 0.1, 10), count[b] / n,
            correct[b] / count[b] if count[b] else 0.0,
            confidence[b] / count[b] if count[b] else 0.0) for b in range(10)]
    # |acc_b - conf_b| * n_b / N, summed, is |hits_b - sum of top_b| / N
    ece = sum(abs(correct[b] - confidence[b]) for b in range(10)) / n
    return sum(hits) / n, sum(t in ranked for t, ranked, _ in rows) / n, pr, cal, ece


def conv_maxpool_scan(rows, w, b):
    """rows: n x k matrix (lists); w: flat filter of length h*k; b: scalar.
    Returns max over window positions of relu(w . window + b)."""
    k = len(rows[0])
    h = len(w) // k
    best = None
    for start in range(len(rows) - h + 1):
        flat = [v for r in rows[start:start + h] for v in r]
        act = max(0.0, sum(wi * xi for wi, xi in zip(w, flat)) + b)
        best = act if best is None else max(best, act)
    return best


def forward_trace(embedding, conv, biases, soft_w, soft_b, field_tokens, cat_positions,
                  cat_size):
    """Pure-python forward pass of the classifier (inference mode).

    embedding: list of rows; conv: {h: list of flat filters}; biases: {h:
    list}; soft_w: L x D rows; field_tokens: list (per field) of index lists;
    cat_positions: active one-hot positions. Returns the probability list.
    """
    pooled = []
    for tokens in field_tokens:
        rows = [embedding[i] for i in tokens]
        for h in sorted(conv):
            for w, b in zip(conv[h], biases[h]):
                pooled.append(conv_maxpool_scan(rows, w, b))
    theta_hat = pooled + [0.0] * cat_size
    for p in cat_positions:
        theta_hat[len(pooled) + p] = 1.0
    logits = [sum(wi * xi for wi, xi in zip(row, theta_hat)) + b0
              for row, b0 in zip(soft_w, soft_b)]
    mx = max(logits)
    exps = [math.exp(z - mx) for z in logits]
    s = sum(exps)
    return [e / s for e in exps]


# --------------------------------------------------------------------------
# dense naive Bayes reference: (N, F) count matrices, np.add.at class sums
# and a full refit for every fold

def densify(csr):
    """Dense (N, F) matrix of a CsrCounts, checking its layout: distinct
    ascending columns per row, positive float64 counts."""
    n, f = csr.shape
    out = [[0.0] * f for _ in range(n)]
    for i in range(n):
        cols = [int(c) for c in csr.indices[csr.indptr[i]:csr.indptr[i + 1]]]
        assert cols == sorted(set(cols)), f"row {i}: columns {cols}"
        for c, v in zip(cols, csr.counts[csr.indptr[i]:csr.indptr[i + 1]]):
            assert v > 0
            out[i][c] = float(v)
    return np.array(out, dtype=np.float64).reshape(n, f)


def csr_counts(dense):
    """CsrCounts of a dense (N, F) count matrix, zero cells not stored: the
    inverse of densify."""
    a = np.asarray(dense, dtype=np.float64)
    indptr, indices, counts = [0], [], []
    for row in a:
        for c, v in enumerate(row):
            if v:
                indices.append(c)
                counts.append(float(v))
        indptr.append(len(indices))
    return CsrCounts(np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64),
                     np.array(counts, dtype=np.float64), a.shape[1])


def presence_corpus(present, docs):
    """(counts, labels) of a one-feature corpus with docs[c] documents in
    class c, the first present[c] of which hold the feature once."""
    rows, labels = [], []
    for c, (p, d) in enumerate(zip(present, docs)):
        rows += [[1.0]] * int(p) + [[0.0]] * int(d - p)
        labels += [c] * int(d)
    return csr_counts(rows), np.array(labels, dtype=np.int64)


def count_matrix_dense(token_lists, vocab):
    out = np.zeros((len(token_lists), len(vocab)), dtype=np.float64)
    for i, toks in enumerate(token_lists):
        for t in toks:
            out[i, vocab.index(t)] += 1.0
    return out


def fit_mnb_dense(counts, labels, n_classes, alpha):
    """(class_log_prior, feature_log_prob)."""
    n, f = counts.shape
    fc = np.zeros((n_classes, f), dtype=np.float64)
    np.add.at(fc, labels, counts)
    class_n = np.bincount(labels, minlength=n_classes).astype(np.float64)
    with np.errstate(divide="ignore"):
        return (np.log(class_n / n),
                np.log(fc + alpha) - np.log(fc.sum(axis=1, keepdims=True) + alpha * f))


def predict_mnb_dense(model, counts):
    log_prior, log_prob = model
    return np.argmax(counts @ log_prob.T + log_prior, axis=1)


def fit_stacking_dense(token_lists, labels, label_count, vocabs, folds, alpha):
    """Bases and meta model, each (class_log_prior, feature_log_prob), of
    stacking with the given base vocabularies; token_lists and vocabs map
    each base field to its token lists and vocabulary."""
    counts = {b: count_matrix_dense(token_lists[b], vocabs[b]) for b in vocabs}
    fold_of = np.arange(len(labels)) % folds
    meta = np.zeros((len(labels), len(vocabs) * label_count))
    for j in range(folds):
        tr, te = fold_of != j, fold_of == j
        for bi, b in enumerate(vocabs):
            base = fit_mnb_dense(counts[b][tr], labels[tr], label_count, alpha)
            pred = predict_mnb_dense(base, counts[b][te])
            meta[np.flatnonzero(te), bi * label_count + pred] = 1.0
    bases = {b: fit_mnb_dense(counts[b], labels, label_count, alpha) for b in vocabs}
    return bases, fit_mnb_dense(meta, labels, label_count, alpha)


# --------------------------------------------------------------------------
# dense CNN reference: the im2col forward, the dense backward and the
# out-of-place Adam that the distinct-token convolution and in-place Adam
# replaced. Works on a tweetgeo CnnModel and FeatureBatch.

def field_matrix(indices, model):
    """Embedding rows for one encoded field; PAD rows are zero."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= model.vocab_size):
        raise ValueError("token index out of vocabulary range")
    return model.params["embedding"][idx]


def im2col_windows(X, h):
    """(B, n, k) -> (B, n-h+1, h*k): each row the h stacked word vectors."""
    n = X.shape[1]
    if n < h:
        raise ValueError(f"field length {n} shorter than window {h}")
    p = n - h + 1
    return np.concatenate([X[:, o:o + p, :] for o in range(h)], axis=2)


def window_view(tensors, config, h):
    """Window h's part of conv_w and conv_b in `tensors` (a model's params or
    its gradients), as views: the (h, m, k) row blocks, offset o's filters at
    [o], and the (m,) bias row."""
    m, k = config.filters_per_window, config.embed_dim
    i = config.windows.index(h)
    start = sum(config.windows[:i]) * m
    return tensors["conv_w"][start:start + h * m].reshape(h, m, k), tensors["conv_b"][i]


def window_filters(model, h):
    """Window h's filter bank as the (m, h*k) matrix over the h stacked word
    vectors (a copy), and its (m,) bias (a view)."""
    w, b = window_view(model.params, model.config, h)
    return w.transpose(1, 0, 2).reshape(w.shape[1], -1), b


def dense_conv(model, batch, field, h):
    """(im2col windows (B, P, h*k), pre-activations (B, P, m)) of one field
    and window."""
    w, b = window_filters(model, h)
    xw = im2col_windows(field_matrix(batch.tokens[field], model), h)
    return xw, xw @ w.T + b


def dense_forward(model, batch, train=False, dropout_seed=0):
    """(probs, theta_hat, caches, mask); caches hold (idx, xw, pre, argmax)
    per (field, window), field-major."""
    pooled, caches = [], []
    for f in FIELDS:
        for h in model.config.windows:
            xw, pre = dense_conv(model, batch, f, h)
            act = np.maximum(pre, 0)
            pooled.append(act.max(axis=1))
            caches.append((batch.tokens[f], xw, pre, act.argmax(axis=1)))
    theta = np.concatenate(pooled, axis=1)
    theta, mask = nncore.dropout(theta, model.config.dropout_rate, train=train,
                                 seed=dropout_seed)
    onehot = np.zeros((batch.size, model.cat_block_size), dtype=model.dtype)
    np.put_along_axis(onehot, batch.cat_positions, 1.0, axis=1)
    theta_hat = np.concatenate([theta, onehot], axis=1)
    probs = nncore.softmax(theta_hat @ model.params["softmax_w"].T + model.params["softmax_b"])
    return probs, theta_hat, caches, mask


def dense_backward(model, fwd, labels):
    """Gradients of the mean cross-entropy for every tensor, from the output
    of dense_forward: tensordot over the im2col windows and a scatter of
    every window's input gradient back onto its token rows."""
    probs, theta_hat, caches, mask = fwd
    cfg = model.config
    b_sz, m, k = probs.shape[0], cfg.filters_per_window, cfg.embed_dim
    dlogits = probs.copy()
    dlogits[np.arange(b_sz), labels] -= 1.0
    dlogits /= b_sz
    grads = {name: np.zeros_like(p) for name, p in model.params.items()}
    grads["softmax_w"] = dlogits.T @ theta_hat
    grads["softmax_b"] = dlogits.sum(axis=0)
    dtheta = (dlogits @ model.params["softmax_w"])[:, :mask.shape[1]] * mask
    ci = 0
    for f in FIELDS:
        dX = None
        for h in cfg.windows:
            gw, gb = window_view(grads, cfg, h)
            idx, xw, pre, arg = caches[ci]
            dpooled = dtheta[:, ci * m:(ci + 1) * m]
            ci += 1
            pre_at = np.take_along_axis(pre, arg[:, None, :], axis=1)[:, 0, :]
            dpre = np.zeros_like(pre)
            np.put_along_axis(dpre, arg[:, None, :], (dpooled * (pre_at > 0))[:, None, :],
                              axis=1)
            dw = np.tensordot(dpre, xw, axes=([0, 1], [0, 1]))           # (m, h*k)
            gw += dw.reshape(m, h, k).transpose(1, 0, 2)
            gb += dpre.sum(axis=(0, 1))
            dxw = dpre @ window_filters(model, h)[0]
            p = xw.shape[1]
            if dX is None:
                dX = np.zeros((b_sz, idx.shape[1], k), dtype=model.dtype)
            for o in range(h):
                dX[:, o:o + p, :] += dxw[:, :, o * k:(o + 1) * k]
        np.add.at(grads["embedding"], idx, dX)
    grads["embedding"][0] = 0.0
    return grads


def adam_step_reference(param, grad, m, v, t, lr):
    """Adam update number t with new moment arrays (the update, operation by
    operation, that the in-place version must reproduce bit for bit); updates
    param in place and returns the new (m, v)."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8   # Kingma & Ba's defaults
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * np.square(grad)
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    param -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(param.dtype)
    return m, v


# --------------------------------------------------------------------------
# match-by-match tokenizer: one named group per token kind, classified by
# the group that matched, and a run squeeze on every hashtag and word

_TOKEN_RE = re.compile(
    r"""(?P<url>https?://\S+|www\.\S+)
      | (?P<user>@\w+)
      | (?P<hashtag>\#\w+)
      | (?P<word>\w+)
      | (?P<other>\S)
    """,
    re.VERBOSE | re.UNICODE,
)

_RUN_RE = re.compile(r"(.)\1{3,}", re.UNICODE)


def _squeeze_runs(token: str) -> str:
    return _RUN_RE.sub(lambda m: m.group(1) * 3, token)


def tokenize_scan(text: str) -> list[str]:
    """Split text into tokens; deterministic, empty string -> empty list."""
    out = []
    for m in _TOKEN_RE.finditer(text.lower()):
        kind = m.lastgroup
        tok = m.group()
        if kind == "url":
            out.append(URL_SENTINEL)
        elif kind == "user":
            out.append(USER_SENTINEL)
        elif kind in ("hashtag", "word"):
            out.append(_squeeze_runs(tok))
        else:
            out.append(tok)
    return out


def encode_features_scan(records, vocab, maps, config):
    """The CNN inputs of records, one record and one token at a time, as the
    encoder did before it read token columns: each field's tokens looked up
    in the vocabulary (UNK 1), truncated to the field's max_len and
    right-padded with PAD (0); each record's four one-hot positions from its
    categorical values, line breaks read as spaces, and its 10-minute posting
    slot. Returns (field -> (N, max_len) nested lists, (N, 4) nested lists)."""
    tokens = {}
    for f in FIELDS:
        n = config.max_lens[f]
        tokens[f] = []
        for r in records:
            idx = [vocab.token_to_index.get(t, 1) for t in tokenize_scan(getattr(r, f))[:n]]
            tokens[f].append(idx + [0] * (n - len(idx)))
    cats = []
    for r in records:
        out, offset = [], 0
        for f in ("tweet_lang", "user_lang", "timezone"):
            value = getattr(r, f).replace("\r", " ").replace("\n", " ")
            out.append(offset + getattr(maps, f).get(value, 0))
            offset += len(getattr(maps, f))
        cats.append(out + [offset + r.posted_at % 86400 // 600])
    return tokens, cats


def generate_scan(spec: SynthSpec) -> tuple[list[Record], CityTable]:
    """`synth.generate` as numpy scalar calls, one per draw: each draw through
    `rng.integers`, `rng.random`, `rng.choice` or `rng.uniform`."""
    rng = np.random.default_rng(spec.seed)
    table = city_grid(spec)
    cities = table.cities
    noise = [f"noise{j}" for j in range(spec.noise_vocab_size)]

    weights = 1.0 / np.power(np.arange(1, spec.n_cities + 1, dtype=np.float64),
                             spec.class_skew)
    weights /= weights.sum()

    sig_pool = [[f"sig{i}w{j}" for j in range(SIGNATURE_TOKENS_PER_CITY)]
                for i in range(spec.n_cities)]

    def field_text(city_idx: int, with_signature: bool) -> str:
        lo, hi = spec.tokens_per_field
        n_tok = int(rng.integers(lo, hi + 1))
        toks = []
        for t in range(n_tok):
            if with_signature and (t == 0 or rng.random() < 0.7):
                toks.append(sig_pool[city_idx][int(rng.integers(0, SIGNATURE_TOKENS_PER_CITY))])
            else:
                toks.append(noise[int(rng.integers(0, spec.noise_vocab_size))])
        return " ".join(toks)

    records = []
    for u in range(spec.n_users):
        lo, hi = spec.tweets_per_user
        n_tweets = int(rng.integers(lo, hi + 1))
        visited = rng.choice(spec.n_cities, size=n_tweets, replace=False, p=weights)
        for ci in visited:
            ci = int(ci)
            c = cities[ci]
            p_text, p_desc, p_loc = SIGNATURE_FIELD_PROBS
            carries = [rng.random() < p_text, rng.random() < p_desc, rng.random() < p_loc]
            if not any(carries):
                carries[int(rng.integers(0, 3))] = True
            # 10-minute-accurate daily window characteristic of the city
            slot_center = (ci * _DAY) // max(spec.n_cities, 1)
            seconds = (slot_center + int(rng.integers(-1800, 1801))) % _DAY
            day = int(rng.integers(0, 25))
            lang = f"lang{ci % spec.n_countries}" if rng.random() < 0.9 \
                else f"lang{int(rng.integers(0, spec.n_countries))}"
            tz = f"tz{ci}" if rng.random() < 0.9 else f"tz{int(rng.integers(0, spec.n_cities))}"
            loc_word = f"loc{ci}" if carries[2] else noise[int(rng.integers(0, spec.noise_vocab_size))]
            records.append(Record(
                user_id=f"u{u}",
                text=field_text(ci, carries[0]),
                user_description=field_text(ci, carries[1]),
                user_name=f"name{int(rng.integers(0, spec.noise_vocab_size))}",
                profile_location=f"{loc_word} {noise[int(rng.integers(0, spec.noise_vocab_size))]}",
                tweet_lang=lang,
                user_lang=lang,
                timezone=tz,
                posted_at=_EPOCH_BASE + day * _DAY + seconds,
                lat=round(c.lat + float(rng.uniform(-0.04, 0.04)), 6),
                lon=round(c.lon + float(rng.uniform(-0.04, 0.04)), 6),
                country_code=c.country_code,
            ))
    return records, table


# --------------------------------------------------------------------------
# string-keyed rankings: a Counter of the strings, sorted by (-count, string)

def ranked_by_frequency_scan(values, min_count=1):
    """The distinct values seen at least min_count times, most frequent
    first, ties in ascending (code-point) order."""
    counts = Counter(values)
    return sorted((v for v, c in counts.items() if c >= min_count),
                  key=lambda v: (-counts[v], v))


def build_vocab_scan(token_streams, min_count):
    """The vocabulary of token streams, counted as strings."""
    kept = ranked_by_frequency_scan((t for s in token_streams for t in s), min_count)
    return Vocabulary([PAD_TOKEN, UNK_TOKEN] + kept, min_count=min_count)


def select_top_percent_scan(scores, n_percent):
    """The highest-scoring ceil(n% * |tokens|) tokens of a token -> score
    dict, ties in ascending token order."""
    keep = math.ceil(n_percent / 100.0 * len(scores))
    return sorted(scores, key=lambda t: (-scores[t], t))[:keep]


def igr_cut_scan(vocab, scores, n_percent):
    """The vocabulary cut to its top n_percent of content tokens by the
    column scores `scores`; PAD and UNK stay."""
    by_token = {t: float(scores[i]) for i, t in enumerate(vocab.index_to_token) if i >= 2}
    kept = select_top_percent_scan(by_token, n_percent)
    return Vocabulary(vocab.index_to_token[:2] + kept, min_count=vocab.min_count)


def build_category_maps_scan(records):
    """Category maps counted from the records' values: line breaks read as
    spaces, a value equal to UNK_CAT read as unknown."""
    def one_line(v):
        return v.replace("\r", " ").replace("\n", " ")
    return CategoryMaps.from_value_lists({
        f: [UNK_CAT] + [v for v in ranked_by_frequency_scan(one_line(getattr(r, f))
                                                            for r in records) if v != UNK_CAT]
        for f in CATEGORICAL_FIELDS})
