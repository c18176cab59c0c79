"""Decoder language-model tests."""

import warnings

import numpy as np
import pytest

from groundsent import decoder
from groundsent.autodiff import Matrix, Tape, grad_check
from groundsent.data import BOS, EOS, PAD, pad_sequences
from groundsent.decoder import DecoderParams, caption_nll, cross_entropy_rows, init_state
from groundsent.encoder import LstmCellParams


def make_decoder(v, d_e, d, rng, zero_out=False):
    cell = LstmCellParams(
        input_w=Matrix(0.4 * rng.standard_normal((d_e, 4 * d))),
        recur_w=Matrix(0.4 * rng.standard_normal((d, 4 * d))),
        bias=Matrix(0.1 * rng.standard_normal((1, 4 * d))),
    )
    out_w = np.zeros((v, d)) if zero_out else 0.4 * rng.standard_normal((v, d))
    # moderate scales keep tanh/sigmoid away from saturation, where true
    # gradients underflow below what central differences can resolve
    return DecoderParams(
        init_h_proj=Matrix(0.4 * rng.standard_normal((d, 2 * d))),
        init_c_proj=Matrix(0.4 * rng.standard_normal((d, 2 * d))),
        cell=cell,
        out_w=Matrix(out_w),
        out_b=Matrix(np.zeros((1, v))),
    )


def test_init_state_zero_rep_gives_zero_state():
    rng = np.random.default_rng(0)
    dec = make_decoder(6, 3, 4, rng)
    h0, c0 = init_state(dec, Matrix(np.zeros((1, 8))))
    np.testing.assert_array_equal(h0.data, np.zeros((1, 4)))
    np.testing.assert_array_equal(c0.data, np.zeros((1, 4)))


def test_init_state_bounded_by_tanh():
    rng = np.random.default_rng(1)
    dec = make_decoder(6, 3, 4, rng)
    h0, c0 = init_state(dec, Matrix(rng.standard_normal((1, 8))))
    assert np.all(np.abs(h0.data) < 1.0)
    assert np.all(np.abs(c0.data) < 1.0)


def test_gradient_reaches_sentence_rep():
    rng = np.random.default_rng(2)
    dec = make_decoder(6, 3, 4, rng)
    emb = Matrix(rng.standard_normal((6, 3)))
    rep = Matrix(rng.standard_normal((1, 8)))
    tgt = [BOS, 4, 5, EOS]
    with Tape() as tape:
        tape.backward(caption_nll(dec, emb, rep, tgt))
    assert np.abs(rep.grad).max() > 0


def test_uniform_logits_loss_is_log_vocab():
    rng = np.random.default_rng(3)
    v = 11
    dec = make_decoder(v, 3, 4, rng, zero_out=True)
    emb = Matrix(rng.standard_normal((v, 3)))
    rep = Matrix(rng.standard_normal((1, 8)))
    tgt = [BOS, 4, 7, 5, EOS]
    loss = caption_nll(dec, emb, rep, tgt)
    per_token = loss.item() / (len(tgt) - 1)
    assert per_token == pytest.approx(np.log(v), abs=1e-9)


def test_single_step_two_way_uniform_is_log_two():
    rng = np.random.default_rng(4)
    dec = make_decoder(2, 3, 4, rng, zero_out=True)
    emb = Matrix(rng.standard_normal((2, 3)))
    rep = Matrix(rng.standard_normal((1, 8)))
    loss = caption_nll(dec, emb, rep, [0, 1])
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)


def test_caption_nll_rejects_short_sequences():
    rng = np.random.default_rng(5)
    dec = make_decoder(6, 3, 4, rng)
    emb = Matrix(rng.standard_normal((6, 3)))
    with pytest.raises(ValueError):
        caption_nll(dec, emb, Matrix(np.zeros((1, 8))), [BOS])


def test_padding_never_changes_loss():
    rng = np.random.default_rng(6)
    dec = make_decoder(8, 3, 4, rng)
    emb = Matrix(rng.standard_normal((8, 3)))
    rep = Matrix(rng.standard_normal((1, 8)))
    tgt = [BOS, 4, 6, EOS]
    plain = caption_nll(dec, emb, rep, tgt).item()
    padded = caption_nll(dec, emb, rep, tgt + [PAD, PAD, PAD]).item()
    assert padded == pytest.approx(plain, abs=1e-12)


def test_loss_nonnegative():
    rng = np.random.default_rng(7)
    dec = make_decoder(8, 3, 4, rng)
    emb = Matrix(rng.standard_normal((8, 3)))
    rep = Matrix(rng.standard_normal((1, 8)))
    assert caption_nll(dec, emb, rep, [BOS, 5, EOS]).item() >= 0.0


def test_batch_nll_is_sum_of_lane_nlls():
    rng = np.random.default_rng(11)
    dec = make_decoder(9, 3, 4, rng)
    emb = Matrix(rng.standard_normal((9, 3)))
    tgts = [[BOS, 4, 5, EOS], [BOS, 6, 7, 8, 4, EOS], [BOS, EOS]]
    reps = rng.standard_normal((3, 8))
    lanes = sum(caption_nll(dec, emb, Matrix(reps[k : k + 1]), t).item()
                for k, t in enumerate(tgts))
    ids = pad_sequences([np.array(t) for t in tgts])
    batch = caption_nll(dec, emb, Matrix(reps), ids).item()
    assert batch == pytest.approx(lanes, rel=1e-12, abs=0)


def test_head_on_extreme_logits_is_finite_and_matches_log_softmax():
    rng = np.random.default_rng(12)
    states = Matrix(rng.standard_normal((4, 3)))
    out_w = Matrix(rng.standard_normal((6, 3)))
    out_b = Matrix(1e4 * rng.choice([-1.0, 1.0], size=(1, 6)))  # logits near +-1e4
    targets = np.array([0, 5, 2, 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with Tape() as tape:
            loss = cross_entropy_rows(states, out_w, out_b, targets, np.ones(4, bool))
            tape.backward(loss)
    z = states.data @ out_w.data.T + out_b.data
    shifted = z - z.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    assert np.isfinite(loss.item())
    assert loss.item() == pytest.approx(-logp[np.arange(4), targets].sum(), rel=1e-12, abs=0)
    for m in (states, out_w, out_b):
        assert np.isfinite(m.grad).all()


def test_head_dropped_row_gets_exactly_zero_states_gradient():
    rng = np.random.default_rng(13)
    states = Matrix(rng.standard_normal((3, 4)))
    out_w = Matrix(rng.standard_normal((5, 4)))
    out_b = Matrix(rng.standard_normal((1, 5)))
    keep = np.array([True, False, True])
    with Tape() as tape:
        loss = cross_entropy_rows(states, out_w, out_b, np.array([1, 2, 4]), keep)
        tape.backward(loss)
    np.testing.assert_array_equal(states.grad[1], np.zeros(4))
    assert np.abs(states.grad[keep]).min() > 0
    other_target = cross_entropy_rows(states, out_w, out_b, np.array([1, 0, 4]), keep)
    assert other_target.item() == loss.item()


def head_with_grads(states, out_w, out_b, targets, keep):
    """Loss and the (states, out_w, out_b) gradients of one taped head call, on fresh copies."""
    s, w, b = (Matrix(m) for m in (states, out_w, out_b))
    with Tape() as tape:
        loss = cross_entropy_rows(s, w, b, targets, keep)
        tape.backward(loss)
    return loss.item(), s.grad, w.grad, b.grad


def test_head_appended_dropped_rows_change_nothing():
    # a batch whose last rows are all PAD: the same loss and weight gradients, bit for bit
    rng = np.random.default_rng(14)
    states, out_w, out_b = (rng.standard_normal(s) for s in ((5, 4), (7, 4), (1, 7)))
    targets, keep = np.array([1, 6, 0, 3, 2]), np.array([True, True, False, True, True])
    loss, g_s, g_w, g_b = head_with_grads(states, out_w, out_b, targets, keep)
    bare = cross_entropy_rows(Matrix(states), Matrix(out_w), Matrix(out_b), targets, keep)
    assert bare.item() == loss  # no tape: the same loss
    extra = rng.standard_normal((3, 4))
    padded = head_with_grads(np.vstack([states, extra]), out_w, out_b,
                             np.concatenate([targets, [PAD] * 3]),
                             np.concatenate([keep, [False] * 3]))
    assert padded[0] == loss
    np.testing.assert_array_equal(padded[1][:5], g_s)
    np.testing.assert_array_equal(padded[1][5:], np.zeros((3, 4)))
    np.testing.assert_array_equal(padded[2], g_w)
    np.testing.assert_array_equal(padded[3], g_b)


def test_head_with_no_kept_rows_is_zero_without_warnings():
    rng = np.random.default_rng(15)
    states, out_w, out_b = (rng.standard_normal(s) for s in ((3, 4), (5, 4), (1, 5)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, g_s, g_w, g_b = head_with_grads(states, out_w, out_b, np.array([1, 2, 3]),
                                              np.zeros(3, bool))
    assert loss == 0.0
    for g in (g_s, g_w, g_b):
        np.testing.assert_array_equal(g, np.zeros_like(g))


def test_head_across_chunk_boundaries_matches_one_chunk(monkeypatch):
    rng = np.random.default_rng(16)
    v = 6
    states, out_w, out_b = (rng.standard_normal(s) for s in ((11, 4), (v, 4), (1, v)))
    targets = rng.integers(0, v, 11)
    keep = np.array([1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 1], bool)  # 7 kept rows, dropped between
    whole = head_with_grads(states, out_w, out_b, targets, keep)
    monkeypatch.setattr(decoder, "HEAD_CHUNK_BYTES", 8 * v * 3 - 1)  # 2 rows per chunk
    chunked = head_with_grads(states, out_w, out_b, targets, keep)
    assert chunked[0] == pytest.approx(whole[0], rel=1e-12, abs=0)
    for g_chunked, g_whole in zip(chunked[1:], whole[1:]):
        np.testing.assert_allclose(g_chunked, g_whole, rtol=1e-12, atol=1e-15)
    np.testing.assert_array_equal(chunked[1][~keep], np.zeros((4, 4)))
    inputs = [Matrix(m) for m in (states, out_w, out_b)]
    for k, theta in enumerate(inputs):
        def f(t, k=k):
            args = inputs[:k] + [t] + inputs[k + 1:]
            return cross_entropy_rows(*args, targets, keep)
        assert grad_check(f, theta) < 1e-4
