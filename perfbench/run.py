#!/usr/bin/env python3
"""tweetgeo benchmark: closed-loop runs of the CLI stages on seeded workloads.

    python3 perfbench/run.py --workload cnn-paper --seed 1 --seconds 30 --trace 0

``--trace 0`` sets up the workload five times (``setup_s`` is the median),
then repeats the workload's timed stages for about ``--seconds`` (see
``workloads.iterations``).
Each stage runs as a child process (``python -m tweetgeo.cli``), one at a
time; its wall time and peak RSS come from that child's rusage. Stage times
are medians over every run of the stage, set-up runs included; peak RSS is
taken from the timed runs only.

``--trace 1`` calls every stage of the workload in this process, twice per
round: once untraced and once with the public functions of each ``tweetgeo``
module wrapped in spans (see tracing.py). The per-layer numbers come from the
traced pass; ``trace.overhead_s`` is traced minus untraced stage time of the
same calls. (A child-process stage of ``--trace 0`` also pays interpreter
start-up and imports, about 0.3 s on a 2-vCPU VM, which neither in-process
pass does.)

Either way the outputs are checked and the last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Metric names and
units come from BENCHMARK.json at the repository root.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BLAS_THREADS = 1   # pinned for this process and every stage process; 2 was no faster
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# Runs of one stage back to back inside an iteration. A stage run varies by
# ~8% from run to run on a 2-vCPU VM; the short stages get more runs so that their
# medians settle as well as train's does.
REPEATS = {"prepare": 3, "eval": 3, "predict": 3}
QUALITY = ("accuracy", "acc_top5", "acc_at_161", "median_error_km")
E2E_METRICS = ("setup_s", "prepare_s", "train_s", "eval_s", "predict_records_per_s",
               "peak_rss_mb", *QUALITY, "train_loss", "ok_share")
_SKIPPED_RE = re.compile(r"\(\+(\d+) skipped\)")


@dataclass
class StageRun:
    stage: str
    seconds: float
    rc: int
    rss_mb: float
    output: str


@dataclass
class Ctx:
    """Where one pass of stages reads and writes."""
    inputs: Path
    prep: Path
    bundle: Path
    out: Path


@dataclass
class Ledger:
    """Operations attempted/failed and every failed check, for one run."""
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def op(self, attempted: int, failed: int, what: str):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(what)

    def check(self, ok: bool, what: str):
        if not ok:
            self.problems.append(what)


def run_child(stage: str, argv: list[str], log: Path) -> StageRun:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "w", encoding="utf-8") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "tweetgeo.cli", *argv], env=env,
                                stdout=out, stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return StageRun(stage, seconds, proc.returncode, usage.ru_maxrss / 1024.0,
                    log.read_text(encoding="utf-8"))


def run_inprocess(tracer, wrap: bool, stage: str, argv: list[str]) -> StageRun:
    """Call the stage in this process inside a `stage.<name>` span; with wrap,
    the layer functions are traced too (only while the stage runs, so the
    output checks leave no spans)."""
    from tweetgeo import cli
    buf = io.StringIO()
    if wrap:
        tracer.install()
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = tracer.span(f"stage.{stage}", cli.main, argv)
        seconds = time.perf_counter() - t0
    finally:
        if wrap:
            tracer.uninstall()
    return StageRun(stage, seconds, rc, 0.0, buf.getvalue())


class Bench:
    def __init__(self, w, seed: int, work: Path):
        import workloads
        self.wl = workloads
        self.w = w
        self.seed = seed
        self.work = work
        self.ledger = Ledger()
        self.inputs = None          # workloads.Inputs of the first set-up
        self.digest = None          # input_digest of the first set-up
        self.n_predicted = 0        # valid records in the last predict input
        self.ref_prep = None        # digest of the first prepare output
        self.ref_quality = None     # eval numbers of the first eval
        self.ref_loss = None        # training loss of the first train
        self.quality = {}
        self._labels = {}

    # -- passes ------------------------------------------------------------
    def run_pass(self, stages, ctx: Ctx, tracer=None, wrap=False) -> list[StageRun]:
        """Run stages one after another: as child processes, or in this
        process when a tracer is given."""
        ctx.out.mkdir(parents=True, exist_ok=True)
        runs = []
        for stage in stages:
            argv = self.wl.stage_argv(stage, self.w, ctx.inputs, ctx.prep, ctx.bundle, ctx.out)
            if tracer is None:
                r = run_child(stage, argv, ctx.out / f"{stage}.log")
            else:
                r = run_inprocess(tracer, wrap, stage, argv)
            self.ledger.op(1, int(r.rc != 0), f"{stage} exited {r.rc}: {r.output[-400:]}")
            self.check_stage(r, ctx)
            runs.append(r)
        return runs

    def setup(self, d: Path, stages) -> tuple[float, list[StageRun]]:
        t0 = time.perf_counter()
        info = self.wl.write_inputs(self.w, self.seed, d / "in")
        self.inputs = self.inputs or info
        runs = self.run_pass(stages, self.ctx(d, d / "in"))
        elapsed = time.perf_counter() - t0
        digest = self.wl.input_digest(d / "in")
        self.digest = self.digest or digest
        self.ledger.check(digest == self.digest, "same seed gave different inputs")
        return elapsed, runs

    def ctx(self, d: Path, inputs: Path, prep: Path = None, bundle: Path = None) -> Ctx:
        return Ctx(inputs, prep or d / "prep", bundle or d / "out" / "model.gtlm", d / "out")

    # -- checks ------------------------------------------------------------
    def check_stage(self, r: StageRun, ctx: Ctx):
        if r.rc != 0:
            if r.stage == "predict":
                self.check_predict(ctx)      # counts the records left unscored
            return
        try:
            getattr(self, f"check_{r.stage}")(ctx, r)
        except (OSError, ValueError, KeyError) as e:
            self.ledger.check(False, f"{r.stage} output unreadable: {e!r}")

    def check_prepare(self, ctx: Ctx, r: StageRun):
        m = _SKIPPED_RE.search(r.output)
        skipped = int(m.group(1)) if m else -1
        self.ledger.check(skipped == self.inputs.planted_malformed,
                          f"prepare skipped {skipped}, planted {self.inputs.planted_malformed}")
        h = hashlib.sha256()
        for name in ("train.jsonl", "dev.jsonl", "test.jsonl", "vocab.txt",
                     "category_maps.json", "cities.csv"):
            h.update((ctx.prep / name).read_bytes())
        self.ref_prep = self.ref_prep or h.hexdigest()
        self.ledger.check(h.hexdigest() == self.ref_prep, "prepare output differs between runs")

    def check_train(self, ctx: Ctx, r: StageRun):
        self.ledger.check(ctx.bundle.is_file(), "train wrote no bundle")
        log = ctx.out / "train_log.csv"
        if "cnn" in self.w.stage_args["train"]:
            with open(log, encoding="utf-8") as f:
                loss = statistics.fmean(float(row["train_loss"]) for row in csv.DictReader(f))
        else:
            loss = self.stacking_train_loss(ctx)
        self.ref_loss = self.ref_loss if self.ref_loss is not None else loss
        self.ledger.check(math.isclose(loss, self.ref_loss, rel_tol=1e-6),
                          f"train loss {loss} differs from {self.ref_loss} on the same input")

    def stacking_train_loss(self, ctx: Ctx) -> float:
        """Cross-entropy of each bundled base classifier's posterior
        (bayes.posterior_mnb) on the training split, averaged over the bases.
        The stack's own posterior is too sure of the training split for this:
        its cross-entropy rests on the ~0.5% of records it gets wrong, and it
        spread 28% across ten seeds where this spread 1.3%."""
        import numpy as np
        from tweetgeo import bayes, ingest
        from tweetgeo.train import load_stack_model
        b = load_stack_model(ctx.bundle)
        recs, _ = ingest.read_jsonl(ctx.prep / "train.jsonl")
        rows, y = range(len(recs)), b.labels.label_array(recs)
        losses = []
        for base in bayes.BASE_FIELDS:
            counts = bayes.count_matrix([bayes.base_tokens(r, base) for r in recs],
                                        b.model.base_vocabs[base])
            p = bayes.posterior_mnb(b.model.bases[base], counts)[rows, y]
            losses.append(-np.mean(np.log(np.maximum(p, np.finfo(float).tiny))))
        return float(np.mean(losses))

    def check_eval(self, ctx: Ctx, r: StageRun):
        with open(ctx.out / "eval" / "metrics_summary.csv", encoding="utf-8") as f:
            got = {row["metric"]: float(row["value"]) for row in csv.DictReader(f)}
        n_test = _count_lines(ctx.prep / "test.jsonl")
        self.ledger.check(got.get("n_test") == n_test,
                          f"eval n_test {got.get('n_test')} != test split {n_test}")
        q = {k: got.get(k, math.nan) for k in QUALITY}
        self.ref_quality = self.ref_quality or q
        self.ledger.check(q == self.ref_quality, f"eval numbers {q} != {self.ref_quality}")
        # a model that only predicts the class prior scores the prior's shares
        top1, top5 = prior_shares(ctx.prep)
        self.ledger.check(q["accuracy"] > top1 and q["acc_top5"] > top5,
                          f"eval accuracy {q['accuracy']:.4f}, top-5 {q['acc_top5']:.4f} do not "
                          f"beat the class prior's {top1:.4f}, {top5:.4f}")
        self.quality = q

    def check_predict(self, ctx: Ctx, r: StageRun = None):
        if self.w.predict_test_split:
            with open(ctx.prep / "test.jsonl", encoding="utf-8") as f:
                expected = [json.loads(line)["user_id"] for line in f]
        else:
            expected = self.inputs.valid_users
        labels = self.label_values(ctx.bundle)
        good = 0
        pred = ctx.out / "predictions.jsonl"
        rows = pred.read_text(encoding="utf-8").splitlines() if pred.is_file() else []
        for user, line in zip(expected, rows):
            good += _row_ok(json.loads(line), user, labels)
        self.ledger.op(len(expected), len(expected) - good,
                       f"predict: {good} good rows of {len(rows)} for {len(expected)} valid records")
        self.ledger.check(len(rows) == len(expected),
                          f"predict wrote {len(rows)} rows for {len(expected)} valid records")
        self.n_predicted = len(expected)

    def label_values(self, bundle: Path) -> set:
        from tweetgeo import bundle as bundle_io
        if bundle not in self._labels:
            try:
                _, sections = bundle_io.read_sections(bundle)
                values = bundle_io.decode_json(sections["label_table"])["values"]
            except (OSError, KeyError, ValueError):
                values = []
            self._labels[bundle] = set(values)
        return self._labels[bundle]


def _row_ok(row: dict, user: str, labels: set) -> bool:
    ranked, probs = row.get("ranked_labels"), row.get("ranked_probs")
    if row.get("user_id") != user or not isinstance(ranked, list) or not isinstance(probs, list):
        return False
    return (len(ranked) == min(5, len(labels)) == len(probs)
            and len(set(ranked)) == len(ranked) and all(v in labels for v in ranked)
            and all(0.0 <= p <= 1.0 for p in probs)
            and all(a >= b for a, b in zip(probs, probs[1:]))
            and row.get("top_prob") == probs[0])


def prior_shares(prep: Path) -> tuple[float, float]:
    """Test-split accuracy and top-5 accuracy of a model that always ranks the
    training split's commonest cities first."""
    def cities(name):
        with open(prep / name, encoding="utf-8") as f:
            return [json.loads(line)["city_id"] for line in f if line.strip()]
    top = [c for c, _ in Counter(cities("train.jsonl")).most_common(5)]
    test = cities("test.jsonl")
    return (sum(c == top[0] for c in test) / len(test),
            sum(c in top for c in test) / len(test))


def _count_lines(path: Path) -> int:
    with open(path, encoding="utf-8") as f:
        return sum(1 for line in f if line.strip())


# ---------------------------------------------------------------------------
# the two kinds of run

def untraced_run(b: Bench, seconds: float) -> tuple[dict, dict]:
    w = b.w
    setup_s, runs = [], []
    for k in range(SETUP_REPEATS):
        elapsed, r = b.setup(b.work / f"setup{k}", w.setup_stages)
        setup_s.append(elapsed)
        runs += r
    s0 = b.work / "setup0"
    for k in range(1, SETUP_REPEATS):
        shutil.rmtree(b.work / f"setup{k}")

    rates, timed = [], []
    iterations = b.wl.iterations(w, seconds)
    for it in range(iterations):
        d = b.work / f"it{it}"
        ctx = b.ctx(d, s0 / "in",
                    prep=None if "prepare" in w.timed_stages else s0 / "prep",
                    bundle=None if "train" in w.timed_stages else s0 / "out" / "model.gtlm")
        stages = [st for st in w.timed_stages for _ in range(REPEATS.get(st, 1))]
        for r in b.run_pass(stages, ctx):
            timed.append(r)
            if r.stage == "predict":
                rates.append(b.n_predicted / r.seconds)
        shutil.rmtree(d)

    by_stage, rss = defaultdict(list), defaultdict(list)
    for r in runs + timed:
        by_stage[r.stage].append(r.seconds)
    for r in timed:
        rss[r.stage].append(r.rss_mb)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "prepare_s": statistics.median(by_stage["prepare"]),
        "train_s": statistics.median(by_stage["train"]),
        "eval_s": statistics.median(by_stage["eval"]),
        "predict_records_per_s": statistics.median(rates),
        "peak_rss_mb": max(statistics.median(v) for v in rss.values()),
        **{k: b.quality.get(k, 0.0) for k in QUALITY},
        "train_loss": b.ref_loss if b.ref_loss is not None else 0.0,
    }
    detail = {"setup_s": setup_s, "iterations": iterations,
              "stages": [[r.stage, r.seconds, r.rss_mb, r.rc] for r in runs + timed]}
    return metrics, detail


def traced_run(b: Bench, seconds: float) -> tuple[dict, dict]:
    from tracing import Tracer, layer_metrics, write_spans
    w = b.w
    stages = w.setup_stages + w.timed_stages
    import tweetgeo.cli  # noqa: F401  (import cost stays out of both passes)
    b.setup(b.work / "setup", ())
    inputs = b.work / "setup" / "in"
    per_pass, overheads, passes = [], [], []
    rounds = b.wl.iterations(w, seconds)
    for rnd in range(rounds):
        d_un, d_tr = b.work / f"untraced{rnd}", b.work / f"traced{rnd}"
        tracer = Tracer()
        # alternate which pass runs first, so warm-up does not favour one side
        if rnd % 2 == 0:
            traced = b.run_pass(stages, b.ctx(d_tr, inputs), tracer=tracer, wrap=True)
            untraced = b.run_pass(stages, b.ctx(d_un, inputs), tracer=Tracer())
        else:
            untraced = b.run_pass(stages, b.ctx(d_un, inputs), tracer=Tracer())
            traced = b.run_pass(stages, b.ctx(d_tr, inputs), tracer=tracer, wrap=True)
        shutil.rmtree(d_un)
        shutil.rmtree(d_tr)
        per_pass.append(layer_metrics(tracer.spans))
        overheads.append(sum(r.seconds for r in traced) - sum(r.seconds for r in untraced))
        passes.append((f"traced{rnd}", tracer.spans))
    write_spans(b.work / "spans.jsonl", passes, w.name)
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_s"] = statistics.median(overheads)
    return metrics, {"rounds": rounds, "overhead_s": overheads}


# ---------------------------------------------------------------------------
# environment and output

def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        blas_name = blas_version = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    h = hashlib.sha256()
    for p in sorted((SRC / "tweetgeo").glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
        "commit": commit,
        "source_sha256": h.hexdigest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)   # before numpy is first imported

    if not (SRC / "tweetgeo" / "cli.py").is_file():
        print(f"error: no tweetgeo sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 1

    work = HERE / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    b = Bench(workloads.WORKLOADS[args.workload], args.seed, work)
    if args.trace:
        metrics, detail = traced_run(b, args.seconds)
        declared = spec["per_layer"]
    else:
        metrics, detail = untraced_run(b, args.seconds)
        metrics["ok_share"] = 1.0 - b.ledger.failed / b.ledger.attempted
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with "
                           f"{spec_path.name}")

    env = environment(args.seed)
    correct = not b.ledger.problems
    result = {"correct": correct, "attempted": b.ledger.attempted, "failed": b.ledger.failed,
              "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units}}
    (work / "result.json").write_text(json.dumps(
        {"workload": args.workload, "env": env, "detail": detail,
         "problems": b.ledger.problems, **result}, indent=1), encoding="utf-8")
    for p in b.ledger.problems:
        print(f"check failed: {p}")
    for k in units:
        print(f"{args.workload} {k} = {metrics[k]:.6g} {units[k]}")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
