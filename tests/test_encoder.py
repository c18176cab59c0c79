"""Encoder, LSTM cell, and self-attention tests."""

import warnings

import numpy as np
import pytest

from groundsent import autodiff as ad
from groundsent.autodiff import Matrix, Tape, grad_check
from groundsent.data import PAD, pad_sequences
from groundsent.encoder import (
    EncoderParams, LstmCellParams, attend, compose, encode, encode_sentence, run_lanes,
)


def make_cell(d_in, d, rng, zero=False):
    if zero:
        return LstmCellParams(
            input_w=Matrix(np.zeros((d_in, 4 * d))),
            recur_w=Matrix(np.zeros((d, 4 * d))),
            bias=Matrix(np.zeros((1, 4 * d))),
        )
    return LstmCellParams(
        input_w=Matrix(0.4 * rng.standard_normal((d_in, 4 * d))),
        recur_w=Matrix(0.4 * rng.standard_normal((d, 4 * d))),
        bias=Matrix(0.1 * rng.standard_normal((1, 4 * d))),
    )


def make_encoder(d_e, d, d_a, n_a, rng, tied=False):
    fwd = make_cell(d_e, d, rng)
    bwd = fwd if tied else make_cell(d_e, d, rng)
    return EncoderParams(
        forward_cell=fwd,
        backward_cell=bwd,
        attn_proj=Matrix(rng.standard_normal((d_a, d))),
        attn_heads=Matrix(rng.standard_normal((n_a, d_a))),
    )


def lane_encodings(params, emb, seq):
    """encode() of seq alone (B = 1) and as lane 1 of a batch with a longer and a shorter lane.

    Yields (states, h_s) of seq's lane: states (len(seq), d) in sentence order, h_s (d,).
    """
    longer = list(seq) + [1, 2, 3]
    for batch, lane in (([seq], 0), ([longer, seq, seq[:1]], 1)):
        ids = pad_sequences([np.asarray(s) for s in batch])
        states, h_s = encode(params, emb, ids)
        yield states.data[lane :: len(batch)][: len(seq)], h_s.data[lane]


def time_major(lanes):
    """Stack per-lane (T, d) arrays into time-major (T*B, d) rows."""
    return np.stack(lanes, axis=1).reshape(-1, lanes[0].shape[1])


# ---------------------------------------------------------------------------
# lstm_step (run_lanes, one fused op per direction)


def test_lstm_step_zero_weights_gives_zero_state():
    rng = np.random.default_rng(0)
    cell = make_cell(3, 4, rng, zero=True)
    h = run_lanes(cell, Matrix(rng.standard_normal((1, 3))),
                  Matrix(np.zeros((1, 4))), Matrix(np.zeros((1, 4))))
    np.testing.assert_array_equal(h.data, np.zeros((1, 4)))


def test_lstm_step_saturated_forget_gate_carries_cell():
    # forget and output bias -> +inf, input bias -> -inf: c_t -> c_prev, so h_t -> tanh(c_prev)
    d = 3
    rng = np.random.default_rng(1)
    cell = make_cell(2, d, rng, zero=True)
    cell.bias.data[0, :d] = -30.0          # input gate ~ 0
    cell.bias.data[0, d : 2 * d] = 30.0    # forget gate ~ 1
    cell.bias.data[0, 3 * d :] = 30.0      # output gate ~ 1
    c_prev = Matrix(rng.standard_normal((1, d)))
    h = run_lanes(cell, Matrix(rng.standard_normal((1, 2))),
                  Matrix(rng.standard_normal((1, d))), c_prev)
    np.testing.assert_allclose(h.data, np.tanh(c_prev.data), atol=1e-9)


def test_lstm_step_extreme_preactivations_stay_finite_without_warnings():
    # pre-activations of +-1000 saturate every gate; the logistic must not overflow
    d = 2
    cell = LstmCellParams(
        input_w=Matrix(np.full((1, 4 * d), 1000.0)),
        recur_w=Matrix(np.zeros((d, 4 * d))),
        bias=Matrix(np.zeros((1, 4 * d))),
    )
    x = Matrix([[1.0], [-1.0]])  # lane 0 at +1000, lane 1 at -1000
    h0 = Matrix(np.zeros((2, d)))
    c0 = Matrix(np.full((2, d), 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with Tape() as tape:
            h = run_lanes(cell, x, h0, c0)
            tape.backward(ad.sum_all(h))
    # lane 0: all gates open and g = 1, so c = 0.5 + 1; lane 1: all gates shut, so c = 0
    np.testing.assert_allclose(h.data, [[np.tanh(1.5)] * d, [0.0, 0.0]], atol=0, rtol=1e-15)
    for m in (x, h0, c0, cell.input_w, cell.recur_w, cell.bias):
        assert np.all(np.isfinite(m.grad))


def test_lstm_step_input_gradients():
    rng = np.random.default_rng(3)
    cell = make_cell(3, 4, rng)
    h0 = Matrix(rng.standard_normal((1, 4)))
    c0 = Matrix(rng.standard_normal((1, 4)))
    x = Matrix(rng.standard_normal((1, 3)))

    def through_x(t):
        return ad.sum_all(run_lanes(cell, t, h0, c0))

    def through_c(t):
        return ad.sum_all(run_lanes(cell, x, h0, t))

    assert grad_check(through_x, x) < 1e-6
    assert grad_check(through_c, c0) < 1e-6


# ---------------------------------------------------------------------------
# encode


def test_encode_single_token_column_equals_summary():
    rng = np.random.default_rng(4)
    emb = Matrix(rng.standard_normal((6, 3)))
    params = make_encoder(3, 4, 2, 2, rng)
    for states, h_s in lane_encodings(params, emb, [5]):
        assert states.shape == (1, 4)
        np.testing.assert_allclose(states[0], h_s, rtol=0, atol=1e-12)


def test_encode_rejects_empty_sequence():
    rng = np.random.default_rng(5)
    emb = Matrix(rng.standard_normal((6, 3)))
    params = make_encoder(3, 4, 2, 2, rng)
    with pytest.raises(ValueError):
        encode(params, emb, [])
    with pytest.raises(ValueError, match="empty"):
        encode(params, emb, [[4, 5], [PAD, PAD]])


def test_encode_rejects_pad_inside_a_lane():
    rng = np.random.default_rng(5)
    emb = Matrix(rng.standard_normal((6, 3)))
    params = make_encoder(3, 4, 2, 2, rng)
    with pytest.raises(ValueError, match="padded on the right"):
        encode(params, emb, [[4, PAD, 5], [4, 5, 5]])


def test_encode_zero_weights_zero_states():
    rng = np.random.default_rng(6)
    emb = Matrix(rng.standard_normal((6, 3)))
    params = EncoderParams(
        forward_cell=make_cell(3, 4, rng, zero=True),
        backward_cell=make_cell(3, 4, rng, zero=True),
        attn_proj=Matrix(np.zeros((2, 4))),
        attn_heads=Matrix(np.zeros((2, 2))),
    )
    for states, h_s in lane_encodings(params, emb, [1, 2, 3]):
        np.testing.assert_array_equal(states, np.zeros((3, 4)))
        np.testing.assert_array_equal(h_s, np.zeros(4))


def test_encode_palindrome_with_tied_weights_is_column_symmetric():
    # With shared direction weights the backward pass of a palindrome mirrors
    # the forward pass, so fused states come out palindromic too, in any lane.
    rng = np.random.default_rng(7)
    emb = Matrix(rng.standard_normal((6, 3)))
    params = make_encoder(3, 4, 2, 2, rng, tied=True)
    for states, _ in lane_encodings(params, emb, [2, 5, 2]):
        np.testing.assert_allclose(states[0], states[2], atol=1e-12)


def test_encode_reversal_with_tied_weights_reverses_columns():
    rng = np.random.default_rng(8)
    emb = Matrix(rng.standard_normal((8, 3)))
    params = make_encoder(3, 4, 2, 2, rng, tied=True)
    seq = [1, 4, 7, 2]
    for (H_fwd, _), (H_rev, _) in zip(lane_encodings(params, emb, seq),
                                      lane_encodings(params, emb, seq[::-1])):
        np.testing.assert_allclose(H_fwd, H_rev[::-1], atol=1e-12)


# ---------------------------------------------------------------------------
# attend


def test_attend_zero_proj_gives_uniform_rows_and_mean_contexts():
    rng = np.random.default_rng(9)
    lanes = [rng.standard_normal((5, 4)), rng.standard_normal((5, 4))]
    mask = np.array([[True] * 5, [True] * 3 + [False] * 2])
    heads = Matrix(rng.standard_normal((2, 3)))
    for states, m in ((time_major(lanes[:1]), mask[:1]), (time_major(lanes), mask)):
        contexts, weights = attend(Matrix(np.zeros((3, 4))), heads, Matrix(states), m)
        for b, n in enumerate(m.sum(axis=1)):
            want = np.zeros(5)
            want[:n] = 1.0 / n
            np.testing.assert_allclose(weights[b], [want, want], rtol=0, atol=1e-12)
            for row in contexts.data[2 * b : 2 * b + 2]:
                np.testing.assert_allclose(row, lanes[b][:n].mean(axis=0), atol=1e-12)


def test_attend_single_timestep_is_degenerate():
    rng = np.random.default_rng(10)
    lanes = [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]
    mask = np.array([[True, False, False], [True, True, True]])
    proj, heads = Matrix(rng.standard_normal((3, 4))), Matrix(rng.standard_normal((2, 3)))
    single = attend(proj, heads, Matrix(lanes[0][:1]), mask[:1, :1])
    np.testing.assert_allclose(single[1][0], np.ones((2, 1)))
    batched = attend(proj, heads, Matrix(time_major(lanes)), mask)
    np.testing.assert_array_equal(batched[1][0], [[1.0, 0.0, 0.0]] * 2)
    for contexts, _ in (single, batched):
        for row in contexts.data[:2]:
            np.testing.assert_allclose(row, lanes[0][0])


def test_attend_rows_are_distributions():
    rng = np.random.default_rng(11)
    mask = np.arange(6) < np.array([[6], [2], [4]])
    states = Matrix(rng.standard_normal((6 * 3, 4)))
    _, weights = attend(Matrix(rng.standard_normal((3, 4))), Matrix(rng.standard_normal((5, 3))),
                        states, mask)
    assert weights.shape == (3, 5, 6)
    assert np.all(weights >= 0)
    np.testing.assert_allclose(weights.sum(axis=2), 1.0, atol=1e-12)
    assert np.all(weights[~np.broadcast_to(mask[:, None, :], weights.shape)] == 0.0)


def test_attend_masks_large_scores_on_padding_without_warnings():
    # padded steps become -inf before the softmax, never 0 * inf
    states = Matrix(np.full((2 * 2, 1), 1000.0))
    mask = np.array([[True, True], [True, False]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with Tape() as tape:
            contexts, weights = attend(Matrix([[1.0]]), Matrix([[1e6]]), states, mask)
            tape.backward(ad.sum_all(contexts))
    np.testing.assert_array_equal(weights[:, 0], [[0.5, 0.5], [1.0, 0.0]])
    assert np.all(np.isfinite(states.grad)) and states.grad[3, 0] == 0.0


# ---------------------------------------------------------------------------
# compose / full pipeline


def test_compose_single_head_passes_context_through():
    rng = np.random.default_rng(13)
    ctx = Matrix(rng.standard_normal((1, 4)))
    h_s = Matrix(rng.standard_normal((1, 4)))
    rep = compose(ctx, h_s)
    assert rep.shape == (1, 8)
    np.testing.assert_array_equal(rep.data[:, :4], ctx.data)
    np.testing.assert_array_equal(rep.data[:, 4:], h_s.data)


def test_compose_identical_context_rows():
    row = np.array([[1.0, -2.0, 0.5]])
    ctx = Matrix(np.vstack([row, row, row]))
    rep = compose(ctx, Matrix(np.zeros((1, 3))))
    np.testing.assert_array_equal(rep.data[:, :3], row)


def test_compose_pools_heads_within_each_lane():
    ctx = Matrix([[1.0, 0.0], [0.0, 2.0], [3.0, -1.0], [-3.0, -2.0]])  # 2 lanes x 2 heads
    rep = compose(ctx, Matrix(np.zeros((2, 1))))
    np.testing.assert_array_equal(rep.data[:, :2], [[1.0, 2.0], [3.0, -1.0]])


def test_encode_sentence_deterministic():
    rng = np.random.default_rng(14)
    emb = Matrix(rng.standard_normal((8, 3)))
    params = make_encoder(3, 4, 3, 2, rng)
    rep1, _ = encode_sentence(params, emb, [1, 5, 2])
    rep2, _ = encode_sentence(params, emb, [1, 5, 2])
    np.testing.assert_array_equal(rep1.data, rep2.data)


def test_encode_sentence_head_permutation_leaves_h_a_unchanged():
    rng = np.random.default_rng(15)
    emb = Matrix(rng.standard_normal((8, 3)))
    params = make_encoder(3, 4, 3, 4, rng)
    rep, _ = encode_sentence(params, emb, [1, 5, 2, 6])
    perm = np.random.default_rng(0).permutation(4)
    permuted = EncoderParams(
        forward_cell=params.forward_cell,
        backward_cell=params.backward_cell,
        attn_proj=params.attn_proj,
        attn_heads=Matrix(params.attn_heads.data[perm]),
    )
    rep_p, _ = encode_sentence(permuted, emb, [1, 5, 2, 6])
    np.testing.assert_allclose(rep.data[:, :4], rep_p.data[:, :4], atol=1e-12)  # d_cell = 4


def test_lane_equals_sentence_alone_for_every_length():
    # A sentence's lane inside a batch padded by longer sentences encodes as
    # the sentence alone: padding must not enter either direction or attention.
    rng = np.random.default_rng(18)
    emb = Matrix(rng.standard_normal((12, 3)))
    params = make_encoder(3, 4, 3, 2, rng)
    longest = list(rng.integers(1, 12, size=9))
    for n in range(1, 9):
        seq = list(rng.integers(1, 12, size=n))
        alone, attn_alone = encode_sentence(params, emb, seq)
        ids = pad_sequences([np.array(s) for s in (longest, seq, longest[: n + 1])])
        batch, attn_batch = encode_sentence(params, emb, ids)
        np.testing.assert_allclose(batch.data[1], alone.data[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(attn_batch[1, :, :n], attn_alone[0], rtol=0, atol=1e-12)
        assert np.all(attn_batch[1, :, n:] == 0.0)
