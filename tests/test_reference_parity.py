"""The batched model against perfbench/reference.py, a plain-numpy one-sentence-at-a-time oracle.

The reference shares no code with the package and reads parameters by their
checkpoint names. Every batch of a corpus whose sentences have 3-8 content
tokens mixes lane lengths, so each check here fails on a wrong padding rule.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from groundsent.autodiff import Tape
from groundsent.data import build_vocab, gen_synthetic, make_batches, numericalize
from groundsent.evaluation import encode_reps, salience
from groundsent.training import AdamState, TrainConfig, composite_loss, init_params, train_step

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_reference", Path(__file__).resolve().parents[1] / "perfbench" / "reference.py")
ref = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ref)

TOL = 1e-12  # relative to max(1, |reference|)
FD_EPS, TOL_GRAD = 1e-8, 1e-3  # the directional derivative is checked as the benchmark does


def close(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = max(1.0, float(np.max(np.abs(want))))
    return got.shape == want.shape and float(np.max(np.abs(got - want))) <= TOL * scale


@pytest.fixture(scope="module")
def model():
    """A model trained a few steps on a 256-sample corpus, and that corpus's batches."""
    config = TrainConfig(seed=4)
    corpus = gen_synthetic(256, 64, config.d_img, seed=4)
    vocab = build_vocab(corpus)
    samples = numericalize(corpus, vocab)
    params = init_params(config, vocab.size)
    adam = AdamState.for_params(params)
    batches = make_batches(samples, config.batch_size, config.seed)
    rng = np.random.default_rng(0)
    for batch in batches[:3]:  # move off the structured initial point
        train_step(batch, params, adam, config, rng=rng)
    return config, corpus, vocab, params, samples, batches


def test_batches_mix_lengths(model):
    *_, batches = model
    for batch in batches:
        lengths = batch.src_mask.sum(axis=1)
        assert lengths.min() < lengths.max()


def test_cap2all_loss_and_gradient_match_reference(model):
    config, _, _, params, _, batches = model
    named = params.named()
    rng = np.random.default_rng(7)
    for batch in batches:
        params.zero_grads()
        with Tape() as tape:
            loss, _, _ = composite_loss("cap2all", batch, params, train_mode=False)
            tape.backward(loss)
        P = {k: m.data for k, m in named.items()}
        srcs = [batch.src_ids(k) for k in range(batch.size)]
        tgts = [batch.tgt_ids(k) for k in range(batch.size)]
        want = ref.cap2all_loss(P, srcs, tgts, batch.images)
        assert close(loss.item(), want), (loss.item(), want)

        # every parameter, the PAD row of the embeddings included
        u = {k: rng.choice((-1.0, 1.0), size=m.shape) for k, m in named.items()}
        analytic = sum(float((m.grad * u[k]).sum()) for k, m in named.items()
                       if m.grad is not None)
        plus = ref.cap2all_loss({k: P[k] + FD_EPS * u[k] for k in P}, srcs, tgts, batch.images)
        minus = ref.cap2all_loss({k: P[k] - FD_EPS * u[k] for k in P}, srcs, tgts, batch.images)
        numeric = (plus - minus) / (2 * FD_EPS)
        assert abs(analytic - numeric) <= TOL_GRAD * max(abs(analytic), abs(numeric))
    params.zero_grads()


def test_encode_reps_and_salience_match_reference(model):
    _, corpus, vocab, params, samples, _ = model
    P = {k: m.data for k, m in params.named().items()}
    encoded = [ref.encode(P, s.src) for s in samples]
    assert close(encode_reps(params, samples), np.vstack([rep for rep, _ in encoded]))
    for record, (_, weights) in zip(corpus.records, encoded):
        want = weights[:, 1:-1] / weights[:, 1:-1].sum(axis=1, keepdims=True)
        assert close(salience(params, vocab, record.src).attention, want)
