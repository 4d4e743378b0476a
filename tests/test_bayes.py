import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import make_record
from oracles import (count_matrix_dense, csr_counts, densify, fit_stacking_dense, igr_oracle,
                     mnb_posterior_exact, predict_mnb_dense, presence_corpus)
from tweetgeo import bayes, nncore
from tweetgeo.bayes import (BASE_FIELDS, CsrCounts, MnbModel, base_tokens, count_matrix,
                            fit_mnb, fit_stacking, igr_scores, posterior_mnb,
                            posterior_stacking, predict_mnb, reduce_vocab, select_top_percent)
from tweetgeo.columns import token_columns
from tweetgeo.encode import categorical_tokens
from tweetgeo.textproc import build_vocab

# class A docs: "x x", "x y"; class B doc: "y"; features (x, y)
HAND_COUNTS = csr_counts([[2, 0], [1, 1], [0, 1]])
HAND_LABELS = np.array([0, 0, 1])


def test_fit_mnb_hand_values_alpha_one():
    m = fit_mnb(HAND_COUNTS, HAND_LABELS, n_classes=2, alpha=1.0)
    # P(x|A) = (3+1)/(4+2) = 2/3, P(y|B) = (1+1)/(1+2) = 2/3
    assert np.exp(m.feature_log_prob[0, 0]) == pytest.approx(2 / 3, abs=1e-12)
    assert np.exp(m.feature_log_prob[1, 1]) == pytest.approx(2 / 3, abs=1e-12)
    assert np.exp(m.class_log_prior).sum() == pytest.approx(1.0, abs=1e-9)
    assert np.exp(m.feature_log_prob).sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-9)


def test_fit_mnb_single_class_predicts_it():
    m = fit_mnb(csr_counts([[1.0, 2.0]]), np.array([0]), n_classes=1, alpha=0.5)
    doc = csr_counts([[5.0, 0.0]])
    assert predict_mnb(m, doc).tolist() == [0] and posterior_mnb(m, doc).tolist() == [[1.0]]


def test_fit_mnb_symmetry():
    counts = csr_counts([[3, 1], [1, 3]])
    m = fit_mnb(counts, np.array([0, 1]), n_classes=2, alpha=0.01)
    assert m.feature_log_prob[0, 0] == pytest.approx(m.feature_log_prob[1, 1], abs=1e-12)


def test_fit_mnb_rejects_empty():
    with pytest.raises(ValueError):
        fit_mnb(csr_counts(np.zeros((0, 2))), np.zeros(0, dtype=int), 2)
    with pytest.raises(ValueError):
        fit_mnb(csr_counts(np.zeros((2, 0))), np.array([0, 1]), 2)


def test_predict_empty_doc_returns_prior():
    m = fit_mnb(HAND_COUNTS, HAND_LABELS, n_classes=2, alpha=1.0)
    post = posterior_mnb(m, csr_counts(np.zeros((1, 2))))
    assert post[0] == pytest.approx([2 / 3, 1 / 3], abs=1e-12)


def test_predict_hand_doc():
    m = fit_mnb(HAND_COUNTS, HAND_LABELS, n_classes=2, alpha=1.0)
    doc = csr_counts([[1.0, 0.0]])
    label, post = predict_mnb(m, doc), posterior_mnb(m, doc)
    assert label.tolist() == [0]
    assert post.sum() == pytest.approx(1.0, abs=1e-9)


def test_posterior_matches_exact_bayes_six_docs():
    # A: "x x", "x y", "x"; B: "y", "y x", "y y"
    counts = csr_counts([[2, 0], [1, 1], [1, 0], [0, 1], [1, 1], [0, 2]])
    labels = np.array([0, 0, 0, 1, 1, 1])
    m = fit_mnb(counts, labels, n_classes=2, alpha=0.01)
    class_docs = [[[2, 0], [1, 1], [1, 0]], [[0, 1], [1, 1], [0, 2]]]
    for doc in ([1, 0], [0, 1], [2, 1], [0, 0], [3, 2]):
        want = mnb_posterior_exact(class_docs, doc, 0.01)
        got = posterior_mnb(m, csr_counts([doc]))[0]
        assert got == pytest.approx(want, abs=1e-12)


def test_posterior_frozen_exact_values():
    # exact fractions for the six-document corpus, alpha = 1/100
    counts = csr_counts([[2, 0], [1, 1], [1, 0], [0, 1], [1, 1], [0, 2]])
    m = fit_mnb(counts, np.array([0, 0, 0, 1, 1, 1]), n_classes=2, alpha=0.01)
    assert posterior_mnb(m, csr_counts([[1.0, 0.0]]))[0, 0] == pytest.approx(401 / 502, abs=1e-12)
    assert posterior_mnb(m, csr_counts([[0.0, 1.0]]))[0, 1] == pytest.approx(401 / 502, abs=1e-12)
    assert posterior_mnb(m, csr_counts([[0.0, 0.0]]))[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_mnb_scaling_invariance_without_smoothing():
    counts = np.array([[4, 1], [1, 3]], dtype=float)
    labels = np.array([0, 1])
    docs = csr_counts([[2.0, 1.0], [0.0, 3.0], [5.0, 5.0]])
    m1 = fit_mnb(csr_counts(counts), labels, 2, alpha=0.0)
    m2 = fit_mnb(csr_counts(counts * 7), labels, 2, alpha=0.0)
    assert predict_mnb(m1, docs).tolist() == predict_mnb(m2, docs).tolist() == [0, 1, 1]


def test_mnb_argmax_tie_goes_to_smaller_index():
    counts = csr_counts([[1, 1], [1, 1]])
    m = fit_mnb(counts, np.array([0, 1]), 2, alpha=1.0)
    doc = csr_counts([[1.0, 1.0]])
    label, post = predict_mnb(m, doc), posterior_mnb(m, doc)
    assert post[0, 0] == pytest.approx(post[0, 1], abs=1e-15)
    assert label.tolist() == [0]


@given(data=st.data())
def test_predict_mnb_is_the_argmax_of_the_dense_joint_likelihood(data):
    # log-probabilities on a 1/8 grid keep every product and sum exact, so the
    # sparse, dense and normalized paths tie exactly where the others do
    n_classes, n_features = data.draw(st.integers(2, 5)), data.draw(st.integers(1, 6))
    grid = st.integers(-40, 0).map(lambda k: k / 8)
    vectors = lambda values, size: st.lists(values, min_size=size, max_size=size)
    prior = np.array(data.draw(vectors(grid, n_classes)))
    log_prob = np.array(data.draw(vectors(vectors(grid, n_features), n_classes)))
    absent = data.draw(st.integers(0, n_classes))   # n_classes: no class is absent
    prior[absent:absent + 1] = -np.inf               # a class with no training documents
    docs = np.array(data.draw(st.lists(vectors(st.integers(0, 4), n_features), max_size=10)),
                    dtype=float).reshape(-1, n_features)
    model = MnbModel(prior, log_prob)
    got = predict_mnb(model, csr_counts(docs))
    assert got.dtype == np.int64 and got.shape == (len(docs),)
    assert got.tolist() == predict_mnb_dense((prior, log_prob), docs).tolist()
    assert got.tolist() == np.argmax(posterior_mnb(model, csr_counts(docs)), axis=1).tolist()


def _igr(present, docs) -> float:
    """IGR of the one feature of a corpus with these per-class presence and
    document counts."""
    counts, labels = presence_corpus(present, docs)
    return float(igr_scores(counts, labels, len(docs))[0])


def test_igr_degenerate_split_is_zero():
    assert _igr([10, 20], [10, 20]) == 0.0
    assert _igr([0, 0], [10, 20]) == 0.0


def test_igr_perfect_indicator_balanced_two_class():
    # token present exactly in one of two equal classes: IG = IV = 1 bit
    assert _igr([10, 0], [10, 10]) == pytest.approx(1.0, abs=1e-12)


def test_igr_three_class_frozen_value():
    # docs [40, 30, 30], present [30, 5, 0]; frozen from an exact computation
    got = _igr([30, 5, 0], [40, 30, 30])
    assert got == pytest.approx(0.44381142970432105, abs=1e-9)
    assert got == pytest.approx(igr_oracle([30, 5, 0], [40, 30, 30]), abs=1e-12)


def test_igr_matches_oracle_on_random_tables(rng):
    for _ in range(50):
        docs = rng.integers(1, 30, size=3)
        present = np.array([int(rng.integers(0, d + 1)) for d in docs])
        got = _igr(present, docs)
        assert got == pytest.approx(igr_oracle(list(present), list(docs)), abs=1e-12)
        assert got >= 0.0


def test_select_top_percent():
    scores = {f"t{i}": float(i) for i in range(10)}
    kept = select_top_percent(scores, 40.0)
    assert kept == ["t9", "t8", "t7", "t6"]
    assert len(select_top_percent(scores, 100.0)) == 10
    with pytest.raises(ValueError):
        select_top_percent(scores, 0.0)
    with pytest.raises(ValueError):
        select_top_percent(scores, 101.0)


def test_select_top_percent_tie_break_lexicographic():
    scores = {"b": 1.0, "a": 1.0, "c": 2.0}
    assert select_top_percent(scores, 60.0) == ["c", "a"]   # ceil(1.8) = 2 kept


def test_reduce_vocab_keeps_pad_unk():
    tokens = [["alpha", "alpha"], ["beta"], ["gamma"], ["beta", "gamma"]]
    vocab = build_vocab(tokens, min_count=1)
    counts = count_matrix(tokens, vocab)
    labels = np.array([0, 0, 1, 1])
    small = reduce_vocab(vocab, counts, labels, 2, 30.0)   # ceil(0.9) = 1 kept
    assert small.index_to_token[:2] == vocab.index_to_token[:2]
    assert small.content_tokens == ["gamma"]   # the perfect class indicator


def test_categorical_tokens():
    r = make_record(tweet_lang="en", user_lang="fr", tz="EST", posted=9 * 3600 + 15 * 60)
    assert categorical_tokens(r) == ["tl=en", "ul=fr", "tz=EST", "pt=55"]


def _separable_corpus(n_per_class=30):
    recs, labels = [], []
    for i in range(n_per_class):
        recs.append(make_record(user=f"a{i}", text=f"apple fruit w{i % 3}",
                                profile_location="northtown", tweet_lang="en"))
        labels.append(0)
        recs.append(make_record(user=f"b{i}", text=f"banana fruit w{i % 3}",
                                profile_location="southtown", tweet_lang="es"))
        labels.append(1)
    return recs, np.array(labels)


def test_fit_stacking_rejects_bad_folds():
    # each of the FOLDS folds must hold out at least one record
    recs, labels = _separable_corpus(2)
    assert len(recs) == bayes.FOLDS - 1
    with pytest.raises(ValueError, match=f"{bayes.FOLDS} folds need at least {bayes.FOLDS} "
                                         f"records, got {bayes.FOLDS - 1}"):
        fit_stacking(token_columns(recs), labels, 2)
    fit_stacking(token_columns(recs + recs[:1]), np.append(labels, labels[0]), 2)


@pytest.fixture
def no_counting(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("counting reached")
    for name in ("count_matrix", "_csr_counts", "vocab_from_ids"):
        monkeypatch.setattr(bayes, name, unreachable)


@pytest.mark.parametrize("igr_percent", [0.0, -5.0, 100.5, float("nan"), float("inf")])
def test_fit_stacking_rejects_an_igr_percent_before_counting(no_counting, igr_percent):
    # unchecked until select_top_percent, a bad value cost the counting and IGR scoring
    recs, labels = _separable_corpus(4)
    with pytest.raises(ValueError, match=r"igr_percent must be in \(0, 100\]"):
        fit_stacking(token_columns(recs), labels, 2, igr_percent=igr_percent)


def test_meta_features_sum_to_five():
    recs, labels = _separable_corpus(10)
    model = fit_stacking(token_columns(recs), labels, 2)
    base_labels = np.array([[0, 1, 0, 1, 0], [1, 1, 1, 1, 1]])
    feats = model.meta_features(base_labels)
    assert feats.shape == (2, 5 * 2)
    assert densify(feats).sum(axis=1).tolist() == [5.0, 5.0]


def test_stacking_beats_or_matches_perfect_base():
    recs, labels = _separable_corpus(20)
    model = fit_stacking(token_columns(recs), labels, 2)
    acc = float(np.mean(np.argmax(posterior_stacking(model, recs), axis=1) == labels))

    # oracle: the text base alone, out-of-fold, must be perfect here
    tokens = [base_tokens(r, "text") for r in recs]
    vocab = build_vocab(tokens, min_count=1)
    counts = count_matrix(tokens, vocab)
    fold = np.arange(len(recs)) % 5
    base_hits = 0
    for j in range(5):
        m = fit_mnb(counts[fold != j], labels[fold != j], 2, alpha=1e-2)
        pred = predict_mnb(m, counts[fold == j])
        base_hits += int(np.sum(pred == labels[fold == j]))
    assert acc >= base_hits / len(recs)
    assert acc == 1.0


def test_predict_stacking_posterior_sums_to_one():
    recs, labels = _separable_corpus(10)
    model = fit_stacking(token_columns(recs), labels, 2)
    empty = make_record(text="", user_description="", profile_location="", user_name="")
    post = posterior_stacking(model, [make_record(text="apple"), empty])
    assert post.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-9)
    assert np.argmax(post[0]) == 0


def test_posterior_stacking_batch_agrees_with_single():
    recs, labels = _separable_corpus(8)
    model = fit_stacking(token_columns(recs), labels, 2)
    batch = posterior_stacking(model, recs[:5])
    for i in range(5):
        single = posterior_stacking(model, [recs[i]])[0]
        assert batch[i] == pytest.approx(single, abs=1e-12)


def test_stacking_agreement_case():
    # every base sees a perfect signal for class 0 on this record
    recs, labels = _separable_corpus(15)
    model = fit_stacking(token_columns(recs), labels, 2)
    r = make_record(text="apple", profile_location="northtown", tweet_lang="en")
    post = posterior_stacking(model, [r])[0]
    assert np.argmax(post) == 0 and post[0] > 0.5


def test_igr_scores_shape():
    recs, labels = _separable_corpus(10)
    tokens = [base_tokens(r, "text") for r in recs]
    vocab = build_vocab(tokens, min_count=1)
    counts = count_matrix(tokens, vocab)
    scores = igr_scores(counts, labels, 2)
    assert scores.shape == (len(vocab),)
    ix = vocab.token_to_index["apple"]
    assert scores[ix] == pytest.approx(1.0, abs=1e-9)


def test_igr_scores_match_oracle_per_column(rng):
    tokens = [[f"w{int(w)}" for w in rng.integers(0, 12, size=int(rng.integers(0, 6)))]
              for _ in range(60)]
    labels = rng.integers(0, 3, size=60)
    vocab = build_vocab(tokens, min_count=1)
    counts = count_matrix_dense(tokens, vocab)
    scores = igr_scores(csr_counts(counts), labels, 3)
    docs = np.bincount(labels, minlength=3)
    for j in range(len(vocab)):
        present = np.array([np.sum((counts[:, j] > 0) & (labels == c)) for c in range(3)])
        assert scores[j] == pytest.approx(igr_oracle(list(present), list(docs)), abs=1e-12)


@pytest.mark.parametrize("cells", [1, 7, 40])
def test_igr_scores_in_column_blocks_match_oracle(rng, monkeypatch, cells):
    # a block holds BLOCK_CELLS // 3 (feature, class) columns: 1, 2 and 13 here
    tokens = [[f"w{int(w)}" for w in rng.integers(0, 30, size=int(rng.integers(0, 8)))]
              for _ in range(80)]
    labels = rng.integers(0, 3, size=80)
    vocab = build_vocab(tokens, min_count=1)
    counts = count_matrix_dense(tokens, vocab)
    whole = igr_scores(csr_counts(counts), labels, 3)
    monkeypatch.setattr(nncore, "BLOCK_CELLS", cells)
    scores = igr_scores(csr_counts(counts), labels, 3)
    assert scores.tobytes() == whole.tobytes()
    docs = np.bincount(labels, minlength=3)
    for j in range(len(vocab)):
        present = np.bincount(labels[counts[:, j] > 0], minlength=3)
        assert scores[j] == pytest.approx(igr_oracle(list(present), list(docs)), abs=1e-12)


def test_igr_ties_are_bit_equal_and_ranked_lexicographically(rng):
    # tokens whose per-class presence counts are permutations of each other
    # over equal-size classes have equal IGR; rounding must not order them
    n_classes, per_class = 7, 40
    labels = np.repeat(np.arange(n_classes), per_class)
    tokens = [[] for _ in labels]
    patterns = [rng.integers(0, per_class + 1, size=n_classes) for _ in range(30)]
    for p, pattern in enumerate(patterns):
        for q, perm in enumerate(rng.permutation(n_classes) for _ in range(4)):
            name = f"t{p:02d}{'dcba'[q]}"   # permutations listed in reverse name order
            for c, k in enumerate(pattern[perm]):
                for d in range(int(k)):
                    tokens[c * per_class + d].append(name)
    vocab = build_vocab(tokens, min_count=1)
    counts = count_matrix(tokens, vocab)
    scores = igr_scores(counts, labels, n_classes)
    for p in range(len(patterns)):
        group = [scores[vocab.token_to_index[f"t{p:02d}{s}"]] for s in "abcd"
                 if f"t{p:02d}{s}" in vocab]
        assert len(set(group)) <= 1, group
    by_token = {t: float(scores[vocab.token_to_index[t]]) for t in vocab.content_tokens}
    ranked = select_top_percent(by_token, 100.0)
    for a, b in zip(ranked, ranked[1:]):
        assert by_token[a] > by_token[b] or (by_token[a] == by_token[b] and a < b)


def test_count_matrix_densifies_to_dense_reference():
    vocab = build_vocab([["a", "b", "b", "c"], ["c"]], min_count=1)
    token_lists = [["b", "a", "b", "zz"], [], ["zz", "yy", "c"], [], ["a"] * 5, []]
    csr = count_matrix(token_lists, vocab)
    assert csr.shape == (6, len(vocab)) and csr.size == 6 * len(vocab)
    assert csr.indptr.dtype == csr.indices.dtype == np.int64
    assert csr.counts.dtype == np.float64
    want = count_matrix_dense(token_lists, vocab)
    assert np.array_equal(densify(csr), want)
    assert np.count_nonzero(csr) == np.count_nonzero(want) == 6
    assert np.array_equal(densify(count_matrix([], vocab)), np.zeros((0, len(vocab))))


def test_csr_row_selection_matches_dense_rows(rng):
    dense = rng.integers(0, 3, size=(9, 5)).astype(float)
    dense[[2, 8]] = 0.0
    csr = csr_counts(dense)
    assert np.array_equal(densify(csr), dense)
    for rows in (np.array([8, 0, 2, 2]), dense[:, 0] > 0, slice(1, 7, 2), np.array([], dtype=int)):
        assert np.array_equal(densify(csr[rows]), dense[rows])


@pytest.mark.parametrize("cells", [nncore.BLOCK_CELLS, 1, 9])
def test_posterior_mnb_csr_matches_dense_product(rng, monkeypatch, cells):
    monkeypatch.setattr(nncore, "BLOCK_CELLS", cells)   # many row blocks
    train = rng.integers(0, 4, size=(50, 30)).astype(float)
    model = fit_mnb(csr_counts(train), rng.integers(0, 4, size=50), n_classes=4, alpha=0.1)
    docs = rng.integers(0, 3, size=(40, 30)) * (rng.random((40, 30)) < 0.2)
    docs[[0, 17, 39]] = 0
    jll = docs @ model.feature_log_prob.T + model.class_log_prior
    want = np.exp(jll - jll.max(axis=1, keepdims=True))
    want /= want.sum(axis=1, keepdims=True)
    got = posterior_mnb(model, csr_counts(docs))
    assert got.shape == (40, 4)
    assert np.abs(got - want).max() <= 1e-12
    assert got[0] == pytest.approx(np.exp(model.class_log_prior), abs=1e-15)   # empty row
    for score in (posterior_mnb, predict_mnb):
        with pytest.raises(ValueError, match="counts have 29 features, the model 30"):
            score(model, csr_counts(docs[:, :29]))


@pytest.mark.parametrize("cells", [1, 7, 40])
def test_predict_mnb_in_many_row_blocks_equals_one_block(rng, monkeypatch, cells):
    train = rng.integers(0, 4, size=(60, 30)).astype(float)
    model = fit_mnb(csr_counts(train), rng.integers(0, 5, size=60), n_classes=5, alpha=0.1)
    docs = rng.integers(0, 3, size=(200, 30)) * (rng.random((200, 30)) < 0.2)
    docs[[0, 50, 51, 52, 199]] = 0     # empty rows, three of them in a run
    counts = csr_counts(docs)
    assert len(list(bayes._joint_log_likelihood(model, counts))) == 1
    one = predict_mnb(model, counts)
    monkeypatch.setattr(nncore, "BLOCK_CELLS", cells)
    assert len(list(bayes._joint_log_likelihood(model, counts))) > 10
    assert np.array_equal(predict_mnb(model, counts), one)
    assert one.tolist() == predict_mnb_dense((model.class_log_prior, model.feature_log_prob),
                                             docs).tolist()


def test_predict_mnb_holds_one_row_block_not_the_whole_likelihood(rng):
    # the (N, L) joint log-likelihood of a 10^6-tweet fold is 3.6 GiB at 3,000
    # labels; labels need only one row block of it at a time
    n, n_classes, n_cols = 40_000, 200, 50
    model = fit_mnb(csr_counts(rng.integers(0, 3, size=(400, n_cols)).astype(float)),
                    np.arange(400) % n_classes, n_classes)
    first = np.arange(n) % (n_cols - 1)
    counts = CsrCounts(np.arange(0, 2 * n + 1, 2), np.stack([first, first + 1], axis=1).ravel(),
                       np.ones(2 * n), n_cols)
    tracemalloc.start()
    try:
        predict_mnb(model, counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n_classes * 8 / 16     # 4 MB; one block is ~1.6 MB


def _random_corpus(rng, n=90, n_classes=4, classes=None):
    """Random records and their labels; `classes`, if given, fixes each record's class."""
    words = [f"w{i}" for i in range(25)]
    recs, labels = [], []
    for i in range(n):
        y = int(rng.integers(0, n_classes)) if classes is None else int(classes[i])
        pick = lambda k: " ".join(rng.choice(words[y * 5:y * 5 + 8] + words[20:], size=k))
        recs.append(make_record(user=f"u{i}", text=pick(int(rng.integers(0, 7))),
                                user_description=pick(int(rng.integers(0, 3))),
                                profile_location=pick(int(rng.integers(0, 2))),
                                user_name=pick(1), tweet_lang=f"l{int(rng.integers(0, 3))}",
                                tz=f"z{y}" if rng.random() < 0.6 else "z9",
                                posted=int(rng.integers(0, 86400))))
        labels.append(y)
    return recs, np.array(labels)


def _fold_confined_corpus(rng, n=90, folds=5):
    """Classes 0-2 at random, except that class 3 fills fold 2 and no other:
    that fold's bases see no class 3 and give it a -inf prior."""
    classes = rng.integers(0, 3, size=n)
    classes[2::folds] = 3
    return _random_corpus(rng, n, classes=classes)


@pytest.mark.parametrize("igr_percent", [None, 40.0])
def test_fit_stacking_bit_identical_to_dense_reference(rng, igr_percent):
    for recs, labels in (_random_corpus(rng), _fold_confined_corpus(rng)):
        model = fit_stacking(token_columns(recs), labels, 4, igr_percent=igr_percent)
        vocabs = {b: model.base_vocabs[b] for b in BASE_FIELDS}
        tokens = {b: [base_tokens(r, b) for r in recs] for b in BASE_FIELDS}
        # the vocabularies counted from token ids are build_vocab's, then IGR's
        for b in BASE_FIELDS:
            want = build_vocab(tokens[b], min_count=1)
            if igr_percent is not None and b != "cats":
                want = reduce_vocab(want, count_matrix(tokens[b], want), labels, 4, igr_percent)
            assert vocabs[b].index_to_token == want.index_to_token
        bases, meta = fit_stacking_dense(tokens, labels, 4, vocabs, folds=5, alpha=1e-2)
        for b in BASE_FIELDS:
            assert np.array_equal(model.bases[b].class_log_prior, bases[b][0])
            assert np.array_equal(model.bases[b].feature_log_prob, bases[b][1])
        assert np.array_equal(model.meta.class_log_prior, meta[0])
        assert np.array_equal(model.meta.feature_log_prob, meta[1])


def test_categorical_tokens_replace_line_breaks():
    r = make_record(tweet_lang="e\nn", user_lang="fr\r", tz="Zone\r\nX")
    assert categorical_tokens(r)[:3] == ["tl=e n", "ul=fr ", "tz=Zone  X"]
