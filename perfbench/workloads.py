"""The benchmark's workloads: inputs, set-up, the closed timed loop, checks and metrics.

README.md says why each workload exists and which metrics each layer
should move. Every call into groundsent goes through its public functions,
looked up on the module at call time, so the tracer's patches apply.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref
from tracer import Tracer

WORKLOADS = ("train-small", "train-largevocab", "eval-retrieval")


@dataclass(frozen=True)
class Size:
    n_train: int        # samples in a train corpus
    pool: int           # eval-retrieval pool (the 1k-pool retrieval protocol at full size)
    check_pool: int     # pool of the retrieval check that follows training
    batch_size: int
    ckpt_steps: int     # train steps that build the eval-retrieval checkpoint
    resume_steps: int   # steps resumed from that checkpoint after the eval loop
    setup_repeats: int  # setup_s is the median over this many set-ups


SIZES = {
    "full": Size(n_train=2048, pool=1000, check_pool=256, batch_size=32,
                 ckpt_steps=16, resume_steps=4, setup_repeats=12),
    # Self-test size: same vocabularies and widths, so the same ops dominate.
    "toy": Size(n_train=256, pool=96, check_pool=48, batch_size=8,
                ckpt_steps=2, resume_steps=2, setup_repeats=4),
}

V_CONTENT = 64             # content tokens of train-small and eval-retrieval (V = 68)
V_CONTENT_LARGE = 19_996   # train-largevocab: 20,000 rows with the 4 reserved ids
D_IMG = 64
D_E_LARGE = 300            # the width of pretrained GloVe tables
DROPOUT_STREAM = 23        # SeedSequence tag of the per-epoch dropout stream

# Program against reference, relative to max(1, |reference|). The reference does the
# same float64 arithmetic in another order; observed differences are below 1e-15.
# 1e-9 admits any reduction-order change and still catches a wrong result.
TOL_REF = 1e-9
# Directional-derivative check of the training gradient: a central difference of the
# reference loss, step FD_EPS along a random +-1 direction over every parameter.
# Observed relative errors are below 2e-4 (ReLU/max kinks, rounding); a missing or
# wrong gradient term gives errors of 1e-2 and more.
FD_EPS = 1e-8
TOL_GRAD = 1e-3

# Ops whose per-step entry counts and backward times are per-layer metrics.
TRACED_OPS = ("lstm_step", "select_rows", "max2", "matmul", "transpose", "stack_rows")


# ---------------------------------------------------------------------------
# inputs (written by gen.py in its own process; outside setup_s and the timed loop)


def train_config(gs, workload: str, seed: int, size: Size):
    extra = {"d_e": D_E_LARGE} if workload == "train-largevocab" else {}
    return gs.training.TrainConfig(seed=seed, batch_size=size.batch_size, **extra)


def dropout_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, DROPOUT_STREAM, epoch]))


def generate(gs, workload: str, seed: int, size: Size, out_dir) -> None:
    d, tr = gs.data, gs.training
    out = Path(out_dir)
    if workload == "eval-retrieval":
        corpus = d.gen_synthetic(size.pool, V_CONTENT, D_IMG, seed)
        corpus.save(out / "corpus.jsonl")
        vocab = d.build_vocab(corpus)
        config = train_config(gs, workload, seed, size)
        params = tr.init_params(config, vocab.size)
        adam = tr.AdamState.for_params(params)
        batches = d.make_batches(d.numericalize(corpus, vocab), config.batch_size, seed)
        rng = dropout_rng(seed, 0)
        for k in range(size.ckpt_steps):
            tr.train_step(batches[k % len(batches)], params, adam, config, rng=rng)
        gs.checkpoint.save(out / "checkpoint.bin", params, adam, config, vocab, 1)
    elif workload in ("train-small", "train-largevocab"):
        large = workload == "train-largevocab"
        v_content = V_CONTENT_LARGE if large else V_CONTENT
        d.gen_synthetic(size.n_train, v_content, D_IMG, seed).save(out / "corpus.jsonl")
        if large:
            # Built directly: build_vocab keeps only the tokens a corpus uses.
            visual, ordinary = d.synthetic_token_names(v_content)
            (out / "vocab.json").write_text(json.dumps(visual + ordinary))
    else:
        raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# operation accounting


@dataclass
class Tally:
    """Operations attempted and failed; a failed check fails the operation it checks."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        """A stand-alone check counts as one operation."""
        self.attempted += 1
        if not ok:
            self.fail(what)

    def guard(self, what: str, fn, *args):
        """Run a check phase; an exception fails it instead of ending the run."""
        try:
            return fn(*args)
        except Exception:  # the program raised: count it and keep reporting
            self.check(False, f"{what} raised:\n{traceback.format_exc()}")
            return None


def timed(tally: Tally, tracer: Tracer | None, span: str | None, fn, *args):
    """One timed operation; returns (result, seconds), or (None, None) if it raised."""
    tally.attempted += 1
    try:
        t0 = time.perf_counter()
        out = fn(*args) if tracer is None or span is None else tracer.span(span, fn, *args)
        dt = time.perf_counter() - t0
    except Exception:  # the loop must keep running: a raising call is a failed operation
        tally.fail(f"{span or getattr(fn, '__name__', fn)} raised:\n{traceback.format_exc()}")
        return None, None
    return out, dt


def close(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return False
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    return float(np.max(np.abs(got - want), initial=0.0)) <= TOL_REF * scale


def check_reports(tally: Tally, reports, pool: int, first=None):
    """Retrieval reports are sane, and identical to the first repeat's."""
    dicts = tuple(r.to_dict() for r in reports)
    ok = all(r.pool_size == pool and 1 <= r.median_rank <= pool
             and 0 <= r.recall_at_1 <= r.recall_at_5 <= r.recall_at_10 <= 1 for r in reports)
    if not ok or (first is not None and dicts != first):
        tally.fail(f"retrieval reports out of range or changed between repeats: {dicts}")
    return dicts


def check_roundtrip(gs, tally: Tally, work: Path, params, adam, config, vocab) -> int:
    """Save and reload the model; every tensor must come back unchanged. Returns the file size."""
    path = work / "roundtrip.bin"
    gs.checkpoint.save(path, params, adam, config, vocab, 1)
    nbytes = path.stat().st_size
    p2, a2, c2, v2, epoch = gs.checkpoint.load(path)
    path.unlink()
    named2 = p2.named()
    same = (epoch == 1 and c2 == config and v2.tokens == vocab.tokens and a2.step == adam.step
            and all(np.array_equal(m.data, named2[k].data)
                    and np.array_equal(adam.m[k], a2.m[k]) and np.array_equal(adam.v[k], a2.v[k])
                    for k, m in params.named().items()))
    tally.check(same, "checkpoint round trip changed the model")
    return nbytes


def reference_encodings(params, samples):
    P = {k: m.data for k, m in params.named().items()}
    return [ref.encode(P, s.src) for s in samples]


def check_train_step(gs, tally: Tally, params, config, batch) -> None:
    """The loss and gradient of one more batch match the reference implementation.

    Dropout is off (train_mode=False) so the reference needs no random stream.
    """
    named = params.named()
    params.zero_grads()
    with gs.autodiff.Tape() as tape:
        loss, _, _ = gs.training.composite_loss(config.objective, batch, params, train_mode=False)
        tape.backward(loss)
    P = {k: m.data for k, m in named.items()}
    srcs = [batch.src_ids(k) for k in range(batch.size)]
    tgts = [batch.tgt_ids(k) for k in range(batch.size)]
    want = ref.cap2all_loss(P, srcs, tgts, batch.images)
    tally.check(close(loss.item(), want), f"loss {loss.item()!r} != reference {want!r}")

    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 7]))
    u = {k: rng.choice((-1.0, 1.0), size=m.shape) for k, m in named.items()}
    analytic = sum(float((m.grad * u[k]).sum()) for k, m in named.items() if m.grad is not None)

    def shifted(step):
        return ref.cap2all_loss({k: P[k] + step * u[k] for k in P}, srcs, tgts, batch.images)

    numeric = (shifted(FD_EPS) - shifted(-FD_EPS)) / (2 * FD_EPS)
    rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
    tally.check(rel <= TOL_GRAD,
                f"directional derivative {analytic!r} != central difference {numeric!r}")
    params.zero_grads()


# ---------------------------------------------------------------------------
# set-up (timed: setup_s)


@dataclass
class TrainState:
    params: object
    adam: object
    config: object
    vocab: object
    samples: list
    batches: list
    epoch0: list
    epoch: int = 0
    index: int = 0
    rng: np.random.Generator | None = None

    def next_batch(self, gs):
        if self.index == len(self.batches):
            self.epoch += 1
            self.index = 0
            self.batches = gs.data.make_batches(self.samples, self.config.batch_size,
                                                self.config.seed, self.epoch)
            self.rng = dropout_rng(self.config.seed, self.epoch)
        self.index += 1
        return self.batches[self.index - 1]


def setup_train(gs, workload: str, seed: int, size: Size, work: Path) -> TrainState:
    d, tr = gs.data, gs.training
    corpus = d.Corpus.load(work / "corpus.jsonl")
    if workload == "train-largevocab":
        vocab = d.Vocabulary(json.loads((work / "vocab.json").read_text()))
    else:
        vocab = d.build_vocab(corpus)
    samples = d.numericalize(corpus, vocab)
    config = train_config(gs, workload, seed, size)
    params = tr.init_params(config, vocab.size)
    adam = tr.AdamState.for_params(params)
    batches = d.make_batches(samples, config.batch_size, config.seed, 0)
    return TrainState(params=params, adam=adam, config=config, vocab=vocab, samples=samples,
                      batches=batches, epoch0=batches, rng=dropout_rng(seed, 0))


@dataclass
class EvalState:
    params: object
    adam: object
    config: object
    vocab: object
    epoch: int
    records: list
    samples: list


def setup_eval(gs, workload: str, seed: int, size: Size, work: Path) -> EvalState:
    params, adam, config, vocab, epoch = gs.checkpoint.load(work / "checkpoint.bin")
    corpus = gs.data.Corpus.load(work / "corpus.jsonl")
    samples = gs.data.numericalize(corpus, vocab)
    return EvalState(params=params, adam=adam, config=config, vocab=vocab, epoch=epoch,
                     records=corpus.records, samples=samples)


# ---------------------------------------------------------------------------
# closed loops: each call starts when the previous one has returned


def train_steps(gs, st, seconds: float, tally: Tally, tracer, batches=None, count=None,
                between=None):
    """Train for `seconds` (at least one step), or `count` steps over `batches`.

    `between` is called after each step. Returns the durations and sentence counts
    of the steps that succeeded.
    """
    durations, sents = [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while (k < count) if count is not None else (k == 0 or time.perf_counter() < deadline):
        batch = batches[k % len(batches)] if batches is not None else st.next_batch(gs)
        k += 1
        out, dt = timed(tally, tracer, "training.step", gs.training.train_step,
                        batch, st.params, st.adam, st.config, st.rng)
        if between is not None:
            between()
        if out is None:
            continue
        if not np.isfinite(out[0]):
            tally.fail(f"non-finite loss {out[0]!r} at step {st.adam.step}")
            continue
        durations.append(dt)
        sents.append(batch.size)
    return durations, sents


@dataclass
class Round:
    """Successful call times of one eval round; a failed call leaves no time."""

    encode: list = field(default_factory=list)
    retrieval: list = field(default_factory=list)
    salience: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(self.encode) + sum(self.retrieval) + sum(self.salience)


def eval_rounds(gs, st: EvalState, seconds: float, tally: Tally, tracer, expect,
                between=None) -> list[Round]:
    """Rounds of encode_reps, retrieval_eval and one salience call per pool sentence.

    `between` is called after each round.
    """
    ev = gs.evaluation
    want_reps, want_att = expect["reps"], expect["attention"]
    rounds = []
    deadline = time.perf_counter() + seconds
    pool = len(st.samples)
    while not rounds or time.perf_counter() < deadline:
        rnd = Round()
        reps, dt = timed(tally, tracer, None, ev.encode_reps, st.params, st.samples)
        if reps is not None:
            rnd.encode.append(dt)
            if not close(reps, want_reps):
                tally.fail("encode_reps differs from the reference encoder")
        reports, dt = timed(tally, tracer, "evaluation.retrieval", ev.retrieval_eval,
                            st.params, st.samples)
        if reports is not None:
            rnd.retrieval.append(dt)
            dicts = check_reports(tally, reports, pool, expect.get("reports"))
            expect.setdefault("reports", dicts)
        for rec, want in zip(st.records, want_att):
            out, dt = timed(tally, tracer, "evaluation.salience", ev.salience,
                            st.params, st.vocab, rec.src)
            if out is None:
                continue
            rnd.salience.append(dt)
            rows = out.attention.sum(axis=1)
            if not (np.all(np.abs(rows - 1.0) <= 1e-9) and close(out.attention, want)):
                tally.fail(f"salience of {rec.id}: rows sum to {rows}, or differ from reference")
        rounds.append(rnd)
        if between is not None:
            between()
    return rounds


# ---------------------------------------------------------------------------
# metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ms(seconds) -> float:
    return 1e3 * float(seconds)


def p(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


# The machine this benchmark was sized on is shared: its speed drifts by 10-25% over
# seconds with other tenants' load, in CPU time as much as in wall time. So the
# end-to-end timings are taken over the quietest third of a run: the run's calls are
# cut into up to MAX_WINDOWS equal, consecutive windows of at least MIN_WINDOW calls,
# and the third of the windows (at least one) with the lowest median call time is
# kept. The detail line keeps the whole-run figures.
MAX_WINDOWS = 10
MIN_WINDOW = 4


def quietest(call_seconds) -> list[int]:
    """Indices of the calls in the quietest third of the windows, in run order."""
    n = len(call_seconds)
    count = max(1, min(MAX_WINDOWS, n // MIN_WINDOW))
    edges = np.linspace(0, n, count + 1).astype(int)
    windows = sorted(zip(edges[:-1], edges[1:]),
                     key=lambda w: np.median(call_seconds[w[0]:w[1]]))
    return sorted(i for a, b in windows[:max(1, count // 3)] for i in range(a, b))


def batch_fracs(batches) -> dict:
    """Share of distinct ids among a batch's source tokens, and of padding, averaged over batches."""
    unique = [np.unique(b.src[b.src_mask]).size / b.src_mask.sum() for b in batches]
    pad = [1.0 - (b.src_mask.sum() + b.tgt_mask.sum()) / (b.src_mask.size + b.tgt_mask.size)
           for b in batches]
    return {"data.unique_ids_frac": float(np.mean(unique)), "data.pad_frac": float(np.mean(pad))}


def step_metrics(stats: dict, n_steps: int) -> tuple[dict, dict]:
    """Per-train-step layer metrics, plus the backward ms of every op (for the detail line)."""
    tot, bwd, ent = stats["total_s"], stats["bwd_s"], stats["entries"]

    def per(seconds):
        return ms(seconds) / n_steps

    def bsum(layer=None, op=None):
        return sum(v for (lay, o), v in bwd.items() if layer in (None, lay) and op in (None, o))

    step, loss = tot.get("training.step", 0.0), tot.get("training.loss_fwd", 0.0)
    back, clip, adam = (tot.get(k, 0.0) for k in ("autodiff.backward", "training.clip",
                                                   "training.adam"))
    m = {
        "training.step_ms": per(step),
        "training.loss_fwd_ms": per(loss),
        "training.clip_ms": per(clip),
        "training.adam_ms": per(adam),
        "training.other_ms": per(step - loss - back - clip - adam),
        "autodiff.backward_ms": per(back),
        "autodiff.tape_entries_per_step": sum(ent.values()) / n_steps,
        "encoder.lstm_bwd_ms": per(bsum("encoder", "lstm_step")),
        "decoder.lstm_bwd_ms": per(bsum("decoder", "lstm_step")),
        "encoder.embed_bwd_ms": per(bsum("encoder", "select_rows")),
        "decoder.embed_bwd_ms": per(bsum("decoder", "select_rows")),
        "decoder.softmax_bwd_ms": per(bsum("decoder", "cross_entropy_rows")),
    }
    for layer in ("encoder", "decoder", "grounding"):
        m[f"{layer}.fwd_ms"] = per(tot.get(f"{layer}.fwd", 0.0))
        m[f"{layer}.bwd_ms"] = per(bsum(layer))
    for op in TRACED_OPS:
        m[f"autodiff.entries.{op}"] = sum(v for (_, o), v in ent.items() if o == op) / n_steps
        m[f"autodiff.bwd_ms.{op}"] = per(bsum(op=op))
    by_op = {op: per(bsum(op=op)) for op in sorted({o for _, o in bwd})}
    return m, by_op


def call_metrics(stats: dict) -> dict:
    """Mean ms per call of the spans that are timed per call, where they ran."""
    tot, own, calls = stats["total_s"], stats["self_s"], stats["calls"]
    names = {"evaluation.encode_ms": ("evaluation.encode", tot),
             "evaluation.project_ms": ("evaluation.project", tot),
             "evaluation.rank_ms": ("evaluation.retrieval", own),
             "checkpoint.save_ms": ("checkpoint.save", tot),
             "checkpoint.load_ms": ("checkpoint.load", tot),
             "data.make_batches_ms": ("data.make_batches", tot)}
    return {metric: ms(src[span]) / calls[span]
            for metric, (span, src) in names.items() if calls.get(span)}


@dataclass
class Result:
    e2e: dict
    per_layer: dict
    detail: dict
    tally: Tally


def _train(gs, st: TrainState, setups, seconds, trace, size, work) -> Result:
    tally = Tally()
    train_steps(gs, st, 0.0, tally, None, count=1)  # warm-up: first-touch allocation
    tracer = Tracer() if trace else None
    plain, sents = train_steps(gs, st, seconds / 2 if trace else seconds, tally, None,
                               between=setups.between)
    try:
        if trace:
            tracer.install(gs)
            traced, _ = train_steps(gs, st, seconds / 2, tally, tracer)
            loop_stats = tracer.take()
        rss = peak_rss_mb()
        setups.after_loop(trace)  # traced when tracing: gives data.make_batches_ms

        # After the timed loop: checks, plus the calls that the per-layer metrics of
        # the evaluation and checkpoint layers time on this workload.
        tally.guard("train-step check", check_train_step, gs, tally, st.params, st.config,
                    st.next_batch(gs))
        nbytes = tally.guard("checkpoint round trip", check_roundtrip, gs, tally, work,
                             st.params, st.adam, st.config, st.vocab)
        pool = st.samples[: size.check_pool]
        reports, _ = timed(tally, tracer, "evaluation.retrieval", gs.evaluation.retrieval_eval,
                           st.params, pool)
        if reports is not None:
            check_reports(tally, reports, len(pool))
        want = np.vstack([r for r, _ in reference_encodings(st.params, pool)])
        reps, _ = timed(tally, tracer, None, gs.evaluation.encode_reps, st.params, pool)
        if reps is not None and not close(reps, want):
            tally.fail("encode_reps differs from the reference encoder after training")
        if trace:
            post_stats = tracer.take()
    finally:
        if tracer is not None:
            tracer.uninstall()

    setup_s = setups.median()
    quiet = quietest(plain)
    steps = [plain[i] for i in quiet]
    e2e = {
        "setup_s": setup_s,
        "sents_per_s": sum(sents[i] for i in quiet) / sum(steps),
        "batch_ms_p50": ms(p(steps, 50)),
        "call_ms_p50": ms(p(steps, 50)),
        "peak_rss_mb": rss,
    }
    named = {"setup_s": setup_s, "train_sents_per_s": e2e["sents_per_s"],
             "step_ms_p50": e2e["batch_ms_p50"], "peak_rss_mb": rss}
    if len(steps) >= 100:  # at least ten samples beyond the p90
        named["step_ms_p90"] = ms(p(steps, 90))
    detail = {"named": named,
              "samples": {"steps": len(plain), "window_steps": len(steps),
                          "setups": len(setups.seconds)},
              "whole_run": {"train_sents_per_s": sum(sents) / sum(plain),
                            "step_ms_p50": ms(p(plain, 50)), "step_ms_p90": ms(p(plain, 90))}}
    per_layer = {}
    if trace:
        per_layer, by_op = step_metrics(loop_stats, len(traced))
        per_layer.update(call_metrics(post_stats))
        per_layer.update(batch_fracs(st.epoch0))
        per_layer["checkpoint.bytes"] = float(nbytes or 0)
        per_layer["trace.overhead_frac"] = p(traced, 50) / p(plain, 50) - 1.0
        detail["bwd_ms_by_op"] = by_op
        detail["samples"]["traced_steps"] = len(traced)
    return Result(e2e, per_layer, detail, tally)


def _eval(gs, st: EvalState, setups, seconds, trace, size, work) -> Result:
    tally = Tally()
    encoded = reference_encodings(st.params, st.samples)
    expect = {"reps": np.vstack([r for r, _ in encoded]),
              "attention": [w[:, 1:-1] / w[:, 1:-1].sum(axis=1, keepdims=True)
                            for _, w in encoded]}
    tracer = Tracer() if trace else None
    plain = eval_rounds(gs, st, seconds / 2 if trace else seconds, tally, None, expect,
                        between=setups.between)
    try:
        if trace:
            tracer.install(gs)
            traced = eval_rounds(gs, st, seconds / 2, tally, tracer, expect)
            loop_stats = tracer.take()
        rss = peak_rss_mb()
        setups.after_loop(trace)  # traced when tracing: gives checkpoint.load_ms

        # After the timed loop: resume training from the checkpoint, then save and reload
        # it. Both check the program, and give the train-side per-layer metrics here.
        batches = gs.data.make_batches(st.samples, st.config.batch_size, st.config.seed,
                                       st.epoch)
        resume = TrainState(params=st.params, adam=st.adam, config=st.config, vocab=st.vocab,
                            samples=st.samples, batches=batches, epoch0=batches,
                            epoch=st.epoch, rng=dropout_rng(st.config.seed, st.epoch))
        resumed, _ = train_steps(gs, resume, 0.0, tally, tracer, batches=batches,
                                 count=size.resume_steps)
        nbytes = tally.guard("checkpoint round trip", check_roundtrip, gs, tally, work,
                             st.params, st.adam, st.config, st.vocab)
        if trace:
            post_stats = tracer.take()
    finally:
        if tracer is not None:
            tracer.uninstall()

    pool = len(st.samples)

    def stats(rounds):
        encode = [t for r in rounds for t in r.encode]
        retrieval = [t for r in rounds for t in r.retrieval]
        salience = [t for r in rounds for t in r.salience]
        return {"encode_sents_per_s": pool * len(encode) / sum(encode),
                "retrieval_ms_p50": ms(p(retrieval, 50)),
                "salience_ms_p50": ms(p(salience, 50)), "salience_ms_p90": ms(p(salience, 90))}

    setup_s = setups.median()
    window = [plain[i] for i in quietest([r.seconds for r in plain])]
    named = {"setup_s": setup_s, **stats(window), "peak_rss_mb": rss}
    e2e = {"setup_s": setup_s, "sents_per_s": named["encode_sents_per_s"],
           "batch_ms_p50": named["retrieval_ms_p50"], "call_ms_p50": named["salience_ms_p50"],
           "peak_rss_mb": rss}
    detail = {"named": named,
              "samples": {"rounds": len(plain), "window_rounds": len(window),
                          "setups": len(setups.seconds),
                          "window_salience": sum(len(r.salience) for r in window)},
              "whole_run": stats(plain)}
    per_layer = {}
    if trace:
        per_layer, by_op = step_metrics(post_stats, max(1, len(resumed)))
        per_layer["encoder.fwd_ms"] = ms(loop_stats["total_s"].get("encoder.fwd", 0.0)) / len(
            traced)
        per_layer.update(call_metrics(post_stats))
        per_layer.update(call_metrics(loop_stats))
        per_layer.update(batch_fracs(batches))
        per_layer["checkpoint.bytes"] = float(nbytes or 0)
        per_layer["trace.overhead_frac"] = (p([r.seconds for r in traced], 50)
                                            / p([r.seconds for r in plain], 50) - 1.0)
        detail["bwd_ms_by_op"] = by_op
        detail["samples"]["traced_rounds"] = len(traced)
    return Result(e2e, per_layer, detail, tally)


SETUP = {"train-small": setup_train, "train-largevocab": setup_train,
         "eval-retrieval": setup_eval}


class SetUps:
    """Repeated, timed set-ups of one workload, spread over the run; setup_s is their median.

    One set-up comes before the timed loop and gives the state the workload runs
    on. The others are discarded: they run in the gaps between timed calls, one
    every `seconds / repeats`, and after the loop if it ended first. Spread this
    way, their median depends less on the machine's speed at one moment.
    """

    def __init__(self, gs, workload: str, seed: int, size: Size, work: Path, seconds: float):
        self.args = (gs, workload, seed, size, work)
        self.setup = SETUP[workload]
        self.repeats = size.setup_repeats
        self.interval = seconds / self.repeats
        self.seconds: list[float] = []
        self.due = 0.0

    def once(self):
        """One timed set-up; returns its state."""
        t0 = time.perf_counter()
        state = self.setup(*self.args)
        self.seconds.append(time.perf_counter() - t0)
        self.due = time.perf_counter() + self.interval
        return state

    def between(self) -> None:
        if len(self.seconds) < self.repeats and time.perf_counter() >= self.due:
            self.once()

    def after_loop(self, at_least_one: bool) -> None:
        """Complete the repeats; a traced run always sets up once more, under the tracer."""
        for _ in range(max(self.repeats - len(self.seconds), int(at_least_one))):
            self.once()

    def median(self) -> float:
        return statistics.median(self.seconds)


def run(gs, workload: str, seed: int, seconds: float, trace: bool, size: Size,
        work: Path) -> Result:
    setups = SetUps(gs, workload, seed, size, work, seconds)
    body = _eval if workload == "eval-retrieval" else _train
    result = body(gs, setups.once(), setups, seconds, trace, size, work)
    tally = result.tally
    result.detail["named"]["error_rate"] = tally.failed / max(1, tally.attempted)
    return result
