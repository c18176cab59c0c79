"""Encoder, LSTM cell, and self-attention tests."""

import warnings

import numpy as np
import pytest

from groundsent import autodiff as ad
from groundsent.autodiff import Matrix, Tape, grad_check
from groundsent.encoder import (
    EncoderParams, LstmCellParams, attend, compose, encode, encode_sentence, lstm_step,
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


# ---------------------------------------------------------------------------
# lstm_step


def test_lstm_step_zero_weights_gives_zero_state():
    rng = np.random.default_rng(0)
    cell = make_cell(3, 4, rng, zero=True)
    h, c = lstm_step(cell, Matrix(rng.standard_normal((1, 3))),
                     Matrix(np.zeros((1, 4))), Matrix(np.zeros((1, 4))))
    np.testing.assert_array_equal(h.data, np.zeros((1, 4)))
    np.testing.assert_array_equal(c.data, np.zeros((1, 4)))


def test_lstm_step_saturated_forget_gate_carries_cell():
    # forget bias -> +inf and input bias -> -inf drive c_t -> c_prev
    d = 3
    rng = np.random.default_rng(1)
    cell = make_cell(2, d, rng, zero=True)
    cell.bias.data[0, :d] = -30.0          # input gate ~ 0
    cell.bias.data[0, d : 2 * d] = 30.0    # forget gate ~ 1
    c_prev = Matrix(rng.standard_normal((1, d)))
    _, c = lstm_step(cell, Matrix(rng.standard_normal((1, 2))),
                     Matrix(rng.standard_normal((1, d))), c_prev)
    np.testing.assert_allclose(c.data, c_prev.data, atol=1e-9)


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
            h, c = lstm_step(cell, x, h0, c0)
            tape.backward(ad.sum_all(ad.add(h, c)))
    # lane 0: all gates open and g = 1, so c = 0.5 + 1; lane 1: all gates shut
    np.testing.assert_array_equal(c.data, [[1.5, 1.5], [0.0, 0.0]])
    np.testing.assert_allclose(h.data, [[np.tanh(1.5)] * d, [0.0, 0.0]], atol=0, rtol=1e-15)
    for m in (x, h0, c0, cell.input_w, cell.recur_w, cell.bias):
        assert np.all(np.isfinite(m.grad))


def test_lstm_step_three_step_chain_matches_finite_differences():
    rng = np.random.default_rng(2)
    d_in, d = 3, 4
    cell = make_cell(d_in, d, rng)
    xs_data = rng.standard_normal((3, d_in))
    readout = Matrix(rng.standard_normal((1, d)))

    def run(_):
        h = Matrix(np.zeros((1, d)))
        c = Matrix(np.zeros((1, d)))
        for t in range(3):
            h, c = lstm_step(cell, Matrix(xs_data[t : t + 1]), h, c)
        return ad.sum_all(ad.mul(readout, h))

    for theta in (cell.input_w, cell.recur_w, cell.bias):
        assert grad_check(run, theta) < 1e-4


def test_lstm_step_input_gradients():
    rng = np.random.default_rng(3)
    cell = make_cell(3, 4, rng)
    h0 = Matrix(rng.standard_normal((1, 4)))
    c0 = Matrix(rng.standard_normal((1, 4)))
    x = Matrix(rng.standard_normal((1, 3)))

    def through_x(t):
        h, c = lstm_step(cell, t, h0, c0)
        return ad.sum_all(ad.add(h, c))

    def through_c(t):
        h, c = lstm_step(cell, x, h0, t)
        return ad.sum_all(ad.add(h, c))

    assert grad_check(through_x, x) < 1e-6
    assert grad_check(through_c, c0) < 1e-6


# ---------------------------------------------------------------------------
# encode


def test_encode_single_token_column_equals_summary():
    rng = np.random.default_rng(4)
    emb = Matrix(rng.standard_normal((6, 3)))
    params = make_encoder(3, 4, 2, 2, rng)
    states, h_s = encode(params, emb, [5])
    assert states.shape == (4, 1)
    np.testing.assert_allclose(states.data[:, 0], h_s.data[0])


def test_encode_rejects_empty_sequence():
    rng = np.random.default_rng(5)
    emb = Matrix(rng.standard_normal((6, 3)))
    params = make_encoder(3, 4, 2, 2, rng)
    with pytest.raises(ValueError):
        encode(params, emb, [])


def test_encode_zero_weights_zero_states():
    rng = np.random.default_rng(6)
    emb = Matrix(rng.standard_normal((6, 3)))
    params = EncoderParams(
        forward_cell=make_cell(3, 4, rng, zero=True),
        backward_cell=make_cell(3, 4, rng, zero=True),
        attn_proj=Matrix(np.zeros((2, 4))),
        attn_heads=Matrix(np.zeros((2, 2))),
    )
    states, h_s = encode(params, emb, [1, 2, 3])
    np.testing.assert_array_equal(states.data, np.zeros((4, 3)))
    np.testing.assert_array_equal(h_s.data, np.zeros((1, 4)))


def test_encode_palindrome_with_tied_weights_is_column_symmetric():
    # With shared direction weights the backward pass of a palindrome mirrors
    # the forward pass, so fused state columns come out palindromic too.
    rng = np.random.default_rng(7)
    emb = Matrix(rng.standard_normal((6, 3)))
    params = make_encoder(3, 4, 2, 2, rng, tied=True)
    states, _ = encode(params, emb, [2, 5, 2])
    H = states.data
    np.testing.assert_allclose(H[:, 0], H[:, 2], atol=1e-12)


def test_encode_reversal_with_tied_weights_reverses_columns():
    rng = np.random.default_rng(8)
    emb = Matrix(rng.standard_normal((8, 3)))
    params = make_encoder(3, 4, 2, 2, rng, tied=True)
    seq = [1, 4, 7, 2]
    H_fwd = encode(params, emb, seq)[0].data
    H_rev = encode(params, emb, seq[::-1])[0].data
    np.testing.assert_allclose(H_fwd, H_rev[:, ::-1], atol=1e-12)


# ---------------------------------------------------------------------------
# attend


def test_attend_zero_proj_gives_uniform_rows_and_mean_contexts():
    rng = np.random.default_rng(9)
    H = Matrix(rng.standard_normal((4, 5)))
    out = attend(Matrix(np.zeros((3, 4))), Matrix(rng.standard_normal((2, 3))), H)
    np.testing.assert_allclose(out.weights.data, np.full((2, 5), 0.2), atol=1e-12)
    mean_state = H.data.mean(axis=1)
    for row in out.contexts.data:
        np.testing.assert_allclose(row, mean_state, atol=1e-12)


def test_attend_single_timestep_is_degenerate():
    rng = np.random.default_rng(10)
    H = Matrix(rng.standard_normal((4, 1)))
    out = attend(Matrix(rng.standard_normal((3, 4))), Matrix(rng.standard_normal((2, 3))), H)
    np.testing.assert_allclose(out.weights.data, np.ones((2, 1)))
    for row in out.contexts.data:
        np.testing.assert_allclose(row, H.data[:, 0])


def test_attend_rows_are_distributions():
    rng = np.random.default_rng(11)
    H = Matrix(rng.standard_normal((4, 6)))
    out = attend(Matrix(rng.standard_normal((3, 4))), Matrix(rng.standard_normal((5, 3))), H)
    assert np.all(out.weights.data >= 0)
    np.testing.assert_allclose(out.weights.data.sum(axis=1), 1.0, atol=1e-6)


def test_attend_gradients():
    rng = np.random.default_rng(12)
    H = Matrix(rng.standard_normal((4, 5)))
    w1 = Matrix(rng.standard_normal((3, 4)))
    w2 = Matrix(rng.standard_normal((2, 3)))
    readout = Matrix(rng.standard_normal((2, 4)))

    def run(_):
        out = attend(w1, w2, H)
        return ad.sum_all(ad.mul(readout, out.contexts))

    for theta in (w1, w2, H):
        assert grad_check(run, theta) < 1e-4


# ---------------------------------------------------------------------------
# compose / full pipeline


def test_compose_single_head_passes_context_through():
    rng = np.random.default_rng(13)
    from groundsent.encoder import AttentionOutput

    ctx = Matrix(rng.standard_normal((1, 4)))
    h_s = Matrix(rng.standard_normal((1, 4)))
    rep = compose(AttentionOutput(weights=Matrix(np.ones((1, 3)) / 3), contexts=ctx), h_s)
    np.testing.assert_array_equal(rep.attended.data, ctx.data)
    assert rep.combined.shape == (1, 8)
    np.testing.assert_array_equal(rep.combined.data[:, :4], rep.attended.data)
    np.testing.assert_array_equal(rep.combined.data[:, 4:], h_s.data)


def test_compose_identical_context_rows():
    from groundsent.encoder import AttentionOutput

    row = np.array([[1.0, -2.0, 0.5]])
    ctx = Matrix(np.vstack([row, row, row]))
    rep = compose(AttentionOutput(weights=Matrix(np.ones((3, 2)) / 2), contexts=ctx),
                  Matrix(np.zeros((1, 3))))
    np.testing.assert_array_equal(rep.attended.data, row)


def test_encode_sentence_deterministic():
    rng = np.random.default_rng(14)
    emb = Matrix(rng.standard_normal((8, 3)))
    params = make_encoder(3, 4, 3, 2, rng)
    rep1, _ = encode_sentence(params, emb, [1, 5, 2])
    rep2, _ = encode_sentence(params, emb, [1, 5, 2])
    np.testing.assert_array_equal(rep1.combined.data, rep2.combined.data)


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
    np.testing.assert_allclose(rep.attended.data, rep_p.attended.data, atol=1e-12)


def test_encode_sentence_full_gradient_check():
    rng = np.random.default_rng(16)
    emb = Matrix(rng.standard_normal((8, 3)))
    params = make_encoder(3, 4, 3, 2, rng)
    readout = Matrix(rng.standard_normal((1, 8)))
    seq = [1, 5, 2, 6, 3]

    def run(_):
        rep, _ = encode_sentence(params, emb, seq)
        return ad.sum_all(ad.mul(readout, rep.combined))

    for theta in (params.attn_proj, params.attn_heads, params.forward_cell.recur_w,
                  params.backward_cell.input_w, emb):
        assert grad_check(run, theta) < 1e-4
