"""Spans and counts recorded from outside the program.

``Tracer.install`` replaces chosen public functions of the ``tweetgeo``
modules with wrappers that record a span (name, start, end, parent) and,
where a layer has one, a count taken from the call's arguments or result.
Every module attribute bound to the original function is replaced, so
``from .x import f`` bindings are traced too. ``uninstall`` restores them.
No file under ``src/`` changes.

Spans stay in memory as tuples ``(name, start, end, parent, attrs)`` and are
written out once, by ``write_spans``, when the run ends. ``layer_metrics``
turns one traced pass into the per-layer numbers.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

NAME, START, END, PARENT, ATTRS = range(5)


def _forward_name(args, kwargs):
    train = kwargs.get("train", args[2] if len(args) > 2 else False)
    return "cnn.forward_train" if train else "cnn.forward_infer"


def _read_jsonl(args, kwargs, res):
    return {"parsed": len(res[0]), "skipped": res[1]}


def _dedup(args, kwargs, res):
    return {"in": len(args[0]), "out": len(res)}


def _n_records(args, kwargs, res):
    return {"records": len(args[0])}


def _vocab(args, kwargs, res):
    return {"size": len(res)}


def _encode(args, kwargs, res):
    slots = sum(t.size for t in res.tokens.values())
    pad = sum(int(np.count_nonzero(t == 0)) for t in res.tokens.values())
    return {"slots": slots, "pad": pad}


def _backward(args, kwargs, res):
    emb = res["embedding"]
    return {"rows": emb.shape[0], "touched": int(np.count_nonzero(np.any(emb != 0, axis=1)))}


def _batch_size(args, kwargs, res):
    return {"records": args[1].size}


def _density(args, kwargs, res):
    return {"nnz": int(np.count_nonzero(res)), "cells": int(res.size)}


def _file_bytes(args, kwargs, res):
    return {"bytes": os.path.getsize(args[0])}


# (module, function, span name or naming function, attrs function)
TARGETS = [
    ("ingest", "read_jsonl", "ingest.read_jsonl", _read_jsonl),
    ("ingest", "parse_record", "ingest.parse_record", None),
    ("ingest", "dedup_user_city", "ingest.dedup_user_city", _dedup),
    ("ingest", "split_by_user", "ingest.split_by_user", None),
    ("ingest", "write_jsonl", "ingest.write_jsonl", None),
    ("ingest", "dataset_stats", "ingest.dataset_stats", None),
    ("geo", "assign_cities", "geo.assign_cities", _n_records),
    ("geo", "load_city_table", "geo.load_city_table", None),
    ("geo", "save_city_table", "geo.save_city_table", None),
    ("textproc", "tokenize", "textproc.tokenize", None),
    ("textproc", "build_vocab", "textproc.build_vocab", _vocab),
    ("textproc", "save_vocab", "textproc.save_vocab", None),
    ("textproc", "load_vocab", "textproc.load_vocab", None),
    ("encode", "build_category_maps", "encode.build_category_maps", None),
    ("labels", "city_labels", "labels.city_labels", None),
    ("cnn", "encode_features", "cnn.encode_features", _encode),
    ("cnn", "init_model", "cnn.init_model", None),
    ("cnn", "forward", _forward_name, None),
    ("cnn", "backward", "cnn.backward", _backward),
    ("cnn", "predict_proba", "cnn.predict_proba", _batch_size),
    ("nncore", "adam_step", "nncore.adam_step", None),
    ("nncore", "cross_entropy_batch", "nncore.cross_entropy_batch", None),
    ("train", "train", "train.train", None),
    ("train", "write_train_log", "train.write_train_log", None),
    ("train", "save_model", "train.save_model", None),
    ("train", "save_stack_model", "train.save_stack_model", None),
    ("train", "load_model", "train.load_model", None),
    ("train", "load_stack_model", "train.load_stack_model", None),
    ("bundle", "write_sections", "bundle.write_sections", _file_bytes),
    ("bundle", "read_sections", "bundle.read_sections", None),
    ("bayes", "fit_stacking", "bayes.fit_stacking", None),
    ("bayes", "base_tokens", "bayes.base_tokens", None),
    ("bayes", "count_matrix", "bayes.count_matrix", _density),
    ("bayes", "fit_mnb", "bayes.fit_mnb", None),
    ("bayes", "igr_scores", "bayes.igr_scores", None),
    ("bayes", "predict_mnb", "bayes.predict_mnb", None),
    ("bayes", "posterior_stacking", "bayes.posterior_stacking", None),
    ("metrics", "ranked_top5", "metrics.ranked_top5", None),
    ("metrics", "accuracy", "metrics.accuracy", None),
    ("metrics", "acc_top5", "metrics.acc_top5", None),
    ("metrics", "acc_at_161", "metrics.acc_at_161", None),
    ("metrics", "median_error_km", "metrics.median_error_km", None),
    ("metrics", "per_class_pr", "metrics.per_class_pr", None),
    ("metrics", "calibration_bins", "metrics.calibration_bins", None),
    ("metrics", "write_metrics_summary", "metrics.write_metrics_summary", None),
    ("metrics", "write_per_class_pr", "metrics.write_per_class_pr", None),
    ("metrics", "write_calibration", "metrics.write_calibration", None),
    ("cli", "cmd_prepare", "cli.prepare", None),
    ("cli", "cmd_train", "cli.train", None),
    ("cli", "cmd_eval", "cli.eval", None),
    ("cli", "cmd_predict", "cli.predict", None),
]

REPORT_SPANS = {"metrics.accuracy", "metrics.acc_top5", "metrics.acc_at_161",
                "metrics.median_error_km", "metrics.per_class_pr", "metrics.calibration_bins",
                "metrics.write_metrics_summary", "metrics.write_per_class_pr",
                "metrics.write_calibration"}
STAGES = ("prepare", "train", "eval", "predict")


class Tracer:
    """In-memory span recorder for one process; install() to start tracing."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    def _record(self, name, fn, attrs_fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (label, t0, t1, parent, None)
            if attrs_fn is not None:
                spans[idx] = (label, t0, t1, parent, attrs_fn(args, kwargs, result))
            return result
        return wrapper

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of the given name (for benchmark-level spans)."""
        return self._record(name, fn, None)(*args, **kwargs)

    def install(self):
        import tweetgeo.cli  # noqa: F401  (loads every module a stage uses)
        wrappers = {}
        for mod, fn_name, name, attrs_fn in TARGETS:
            original = getattr(sys.modules[f"tweetgeo.{mod}"], fn_name)
            wrappers[id(original)] = (original, self._record(name, original, attrs_fn))
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "tweetgeo" or mod_name.startswith("tweetgeo.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()


def write_spans(path, passes: list[tuple[str, list]], workload: str):
    """One JSON object per span; times in seconds from the first span."""
    origin = min((s[START] for _, spans in passes for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as f:
        for label, spans in passes:
            for s in spans:
                f.write(json.dumps({
                    "name": s[NAME], "start": s[START] - origin, "end": s[END] - origin,
                    "parent": s[PARENT], "workload": workload, "pass": label,
                    "attrs": s[ATTRS]}) + "\n")


# ---------------------------------------------------------------------------
# analysis

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [(s[END] - s[START]) - covered(children.get(i, ()), s[START], s[END])
            for i, s in enumerate(spans)]


class _Pass:
    """Query helpers over the spans of one traced pass."""

    def __init__(self, spans):
        self.spans = spans
        self.by_name = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s[NAME]].append(i)

    def dur(self, i) -> float:
        return self.spans[i][END] - self.spans[i][START]

    def has_ancestor(self, i, names) -> bool:
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] in names:
                return True
            p = self.spans[p][PARENT]
        return False

    def total(self, *names) -> float:
        """Summed duration of the outermost spans among the given names."""
        ids = [i for n in names for i in self.by_name[n]]
        if len(names) > 1:
            ids = [i for i in ids if not self.has_ancestor(i, set(names))]
        return sum(self.dur(i) for i in ids)

    def calls(self, name) -> int:
        return len(self.by_name[name])

    def attr_sum(self, name, key, ids=None) -> float:
        ids = self.by_name[name] if ids is None else ids
        return float(sum(self.spans[i][ATTRS][key] for i in ids))

    def median_dur(self, name) -> float:
        ids = self.by_name[name]
        return statistics.median(self.dur(i) for i in ids) if ids else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _steps(p: _Pass):
    """Per training step: (wall from forward start to last Adam end, Adam sum)."""
    steps = []
    for i, s in enumerate(p.spans):
        if s[NAME] == "cnn.forward_train":
            steps.append([s[START], s[END], 0.0])
        elif s[NAME] == "nncore.adam_step" and steps:
            steps[-1][1] = s[END]
            steps[-1][2] += s[END] - s[START]
    return [(end - start, adam) for start, end, adam in steps]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer numbers of one traced pass; a layer that did no work reads 0."""
    p = _Pass(spans)
    selfs = self_times(spans)
    steps = _steps(p)
    infer = [i for i in p.by_name["cnn.predict_proba"] if not p.has_ancestor(i, {"train.train"})]
    dev_eval = [i for i in p.by_name["cnn.predict_proba"] if p.has_ancestor(i, {"train.train"})]
    # the vocabulary of the last prepare: a pass may run prepare more than once
    prep_vocab = [i for i in p.by_name["textproc.build_vocab"]
                  if p.has_ancestor(i, {"cli.prepare"})][-1:]
    backward = p.by_name["cnn.backward"]
    infer_s = sum(p.dur(i) for i in infer)
    out = {
        "ingest.read_jsonl_s": p.total("ingest.read_jsonl"),
        "ingest.records_parsed": p.attr_sum("ingest.read_jsonl", "parsed"),
        "ingest.records_skipped": p.attr_sum("ingest.read_jsonl", "skipped"),
        "ingest.dedup_user_city_s": p.total("ingest.dedup_user_city"),
        "ingest.dedup_kept_ratio": _ratio(p.attr_sum("ingest.dedup_user_city", "out"),
                                          p.attr_sum("ingest.dedup_user_city", "in")),
        "ingest.split_by_user_s": p.total("ingest.split_by_user"),
        "ingest.write_jsonl_s": p.total("ingest.write_jsonl"),
        "geo.assign_cities_s": p.total("geo.assign_cities"),
        "geo.assign_cities_records_per_s": _ratio(p.attr_sum("geo.assign_cities", "records"),
                                                  p.total("geo.assign_cities")),
        "textproc.tokenize_s": p.total("textproc.tokenize"),
        "textproc.tokenize_calls": p.calls("textproc.tokenize"),
        "textproc.build_vocab_s": p.total("textproc.build_vocab"),
        "textproc.vocab_size": p.attr_sum("textproc.build_vocab", "size", prep_vocab),
        "cnn.encode_features_s": p.total("cnn.encode_features"),
        "cnn.pad_ratio": _ratio(p.attr_sum("cnn.encode_features", "pad"),
                                p.attr_sum("cnn.encode_features", "slots")),
        "cnn.forward_train_s": p.median_dur("cnn.forward_train"),
        "cnn.backward_s": p.median_dur("cnn.backward"),
        "cnn.embed_rows_touched_ratio": _ratio(p.attr_sum("cnn.backward", "touched"),
                                               p.attr_sum("cnn.backward", "rows")),
        "cnn.predict_proba_s": infer_s,
        "cnn.predict_records_per_s": _ratio(p.attr_sum("cnn.predict_proba", "records", infer),
                                            infer_s),
        "nncore.adam_step_s": statistics.median(a for _, a in steps) if steps else 0.0,
        "nncore.adam_step_calls": p.calls("nncore.adam_step"),
        "train.steps": len(steps),
        "train.step_s": statistics.median(w for w, _ in steps) if steps else 0.0,
        "train.dev_eval_s": sum(p.dur(i) for i in dev_eval),
        "train.self_s": sum(selfs[i] for i in p.by_name["train.train"]),
        "bundle.save_s": p.total("train.save_model", "train.save_stack_model"),
        "bundle.load_s": p.total("train.load_model", "train.load_stack_model",
                                 "bundle.read_sections"),
        "bundle.bytes": p.attr_sum("bundle.write_sections", "bytes"),
        "bayes.base_tokens_s": p.total("bayes.base_tokens"),
        "bayes.count_matrix_s": p.total("bayes.count_matrix"),
        "bayes.count_matrix_calls": p.calls("bayes.count_matrix"),
        "bayes.count_density": _ratio(p.attr_sum("bayes.count_matrix", "nnz"),
                                      p.attr_sum("bayes.count_matrix", "cells")),
        "bayes.fit_mnb_s": p.total("bayes.fit_mnb"),
        "bayes.fit_mnb_calls": p.calls("bayes.fit_mnb"),
        "bayes.igr_scores_s": p.total("bayes.igr_scores"),
        "bayes.predict_mnb_s": p.total("bayes.predict_mnb"),
        "bayes.posterior_stacking_s": p.total("bayes.posterior_stacking"),
        "metrics.ranked_top5_s": p.total("metrics.ranked_top5"),
        "metrics.ranked_top5_calls": p.calls("metrics.ranked_top5"),
        "metrics.report_s": p.total(*sorted(REPORT_SPANS)),
    }
    for stage in STAGES:
        out[f"cli.{stage}.self_s"] = sum(selfs[i] for i in p.by_name[f"cli.{stage}"])
    out["trace.spans"] = len(spans)
    return {k: float(v) for k, v in out.items()}
