"""Bidirectional LSTM encoder with multi-head self-attention, run over B lanes at once.

Lane layout: a batch is a (B, T) id matrix, one sentence per row, padded
on the right with PAD. Per-step values are (T*B, width) matrices in
time-major order, row t*B + b holding step t of lane b. Each direction is
one `run_lanes` call: it projects all its input rows with one matmul, then
runs its T steps over (B, d_cell) states as one fused op.
The backward direction reads each lane's real tokens reversed through the
reversed-index map, row t*B + b <- row (len_b-1-t)*B + b on real steps and
itself on padding; the map is its own inverse, so the same gather restores
sentence order before the two directions are fused by an elementwise max.
Each lane thus starts both directions from zero state at its own ends.
Attention runs over each lane's real steps only (the mask is ids != PAD),
so padded states get weight exactly 0 and no gradient. The head contexts
are max-pooled into the attended summary; the sentence vector is
concat(attended, recurrent), one (B, 2*d_cell) row per lane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Matrix, ShapeError
from .data import PAD


@dataclass
class LstmCellParams:
    """Fused-gate LSTM cell weights: input_w (d_in, 4d), recur_w (d, 4d), bias (1, 4d)."""

    input_w: Matrix
    recur_w: Matrix
    bias: Matrix

    @property
    def hidden_dim(self) -> int:
        return self.recur_w.rows


@dataclass
class EncoderParams:
    forward_cell: LstmCellParams
    backward_cell: LstmCellParams
    attn_proj: Matrix   # (d_a, d_cell)
    attn_heads: Matrix  # (n_a, d_a)


def run_lanes(cell: LstmCellParams, xs: Matrix, h0: Matrix, c0: Matrix) -> Matrix:
    """Run the recurrence from (h0, c0) over time-major inputs xs (T*B, d_in), B = h0.rows.

    Returns the hidden states of every step, time-major (T*B, d). All input
    rows are first projected at once, xs @ input_w + bias, by the recorded
    `matmul` and `add_rowvec` ops; the steps then run as one fused op with an
    analytic backward: BPTT into one (T*B, 4d) pre-activation gradient, then
    recur_w's gradient as one product over all steps.
    """
    x_pre = ad.add_rowvec(ad.matmul(xs, cell.input_w), cell.bias)
    lanes, d = h0.shape
    if (x_pre.cols != 4 * d or x_pre.rows % lanes or c0.shape != h0.shape
            or cell.recur_w.shape != (d, 4 * d)):
        raise ShapeError(
            f"run_lanes: pre-activations {x_pre.shape}, h0 {h0.shape}, c0 {c0.shape} "
            f"vs recur_w {cell.recur_w.shape}"
        )
    steps = x_pre.rows // lanes
    w = cell.recur_w.data
    gates = np.empty((steps, lanes, 4 * d))  # i, f, o logistic; the g block tanh
    cs = np.empty((steps + 1, lanes, d))     # cs[t + 1], hs[t + 1] after step t
    hs = np.empty((steps + 1, lanes, d))
    cs[0], hs[0] = c0.data, h0.data
    for t, x in enumerate(x_pre.data.reshape(steps, lanes, 4 * d)):
        a, c, h = gates[t], cs[t + 1], hs[t + 1]  # written in place
        pre = x + hs[t] @ w
        ad.sigmoid(pre, out=a)
        np.tanh(pre[:, 2 * d : 3 * d], out=a[:, 2 * d : 3 * d])
        np.multiply(a[:, d : 2 * d], cs[t], out=c)
        c += a[:, :d] * a[:, 2 * d : 3 * d]
        np.tanh(c, out=h)
        h *= a[:, 3 * d :]
    out = Matrix(hs[1:].reshape(-1, d))

    def backward():
        i, f, g, o = (gates[..., k * d : (k + 1) * d] for k in range(4))
        tc = np.tanh(cs[1:])
        # d pre / d c for the i, f and g blocks and d pre / d h for the o block, all steps at once
        dpre = gates * (1.0 - gates)  # logistic derivative, tanh's for the g block
        dpre[..., 2 * d : 3 * d] = 1.0 - g * g
        dpre[..., :d] *= g
        dpre[..., d : 2 * d] *= cs[:-1]
        dpre[..., 2 * d : 3 * d] *= i
        dpre[..., 3 * d :] *= tc
        blocks = dpre.reshape(steps, lanes, 4, d)
        dc_dh = o * (1.0 - tc * tc)
        dh_out = out.grad.reshape(steps, lanes, d)
        dh = np.zeros((lanes, d))
        dc = np.zeros((lanes, d))
        for t in reversed(range(steps)):
            dh = dh + dh_out[t]
            dc = dc + dh * dc_dh[t]
            blocks[t, :, :3] *= dc[:, None, :]
            blocks[t, :, 3] *= dh
            dh = dpre[t] @ w.T
            dc = dc * f[t]
        dpre = dpre.reshape(-1, 4 * d)
        x_pre.accumulate(dpre)
        cell.recur_w.accumulate(hs[:-1].reshape(-1, d).T @ dpre)
        h0.accumulate(dh)
        c0.accumulate(dc)

    ad.record("lstm_step", (x_pre, h0, c0, cell.recur_w), out, backward)
    return out


def encode(params: EncoderParams, embeddings: Matrix, token_ids) -> tuple[Matrix, Matrix]:
    """Run both directions over one id sequence or a (B, T) PAD-padded batch of them.

    Returns the fused state matrix (T*B, d_cell), time-major, whose row
    t*B + b is max(fwd_t, bwd_t) of lane b, plus the recurrent summary
    h_s (B, d_cell), max(final forward state, final backward state) of each
    lane. Rows at padded steps hold values that no output reads.
    """
    ids = np.atleast_2d(np.asarray(token_ids, dtype=np.int64))
    real = ids != PAD
    if ids.size == 0 or not real[:, 0].all():
        raise ValueError("encode: empty token sequence")
    if (real[:, 1:] > real[:, :-1]).any():
        raise ValueError("encode: PAD inside a sentence; lanes must be padded on the right")
    lengths = real.sum(axis=1)
    lanes, steps = ids.shape
    d = params.forward_cell.hidden_dim
    t = np.arange(steps)[:, None]
    reversed_rows = (np.where(t < lengths, lengths - 1 - t, t) * lanes
                     + np.arange(lanes)).reshape(-1)

    xs = ad.select_rows(embeddings, ids.T.reshape(-1))
    zeros = Matrix(np.zeros((lanes, d)))
    fwd = run_lanes(params.forward_cell, xs, zeros, zeros)
    bwd = run_lanes(params.backward_cell, ad.select_rows(xs, reversed_rows), zeros, zeros)
    # Row (len_b - 1)*B + b is lane b's last real step going forward and,
    # in the backward direction's reversed order, its first token.
    last = (lengths - 1) * lanes + np.arange(lanes)
    h_s = ad.max2(ad.select_rows(fwd, last), ad.select_rows(bwd, last))
    states = ad.max2(fwd, ad.select_rows(bwd, reversed_rows))
    return states, h_s


def masked_attention(scores: Matrix, states: Matrix, mask: np.ndarray):
    """Softmax of time-major scores (T*B, n_a) over each lane's real steps, and the contexts.

    mask (B, T) is True on real steps; padded scores become -inf, so padding
    gets weight exactly 0. Returns contexts (B*n_a, d), row b*n_a + i the
    head-i weighted sum of lane b's states (T*B, d), and weights (B, n_a, T).
    """
    lanes, steps = mask.shape
    if scores.rows != steps * lanes or states.rows != steps * lanes:
        raise ShapeError(f"masked_attention: {scores.shape}, {states.shape} vs mask {mask.shape}")
    d = states.cols
    s = np.where(mask[:, None, :], scores.data.reshape(steps, lanes, -1).transpose(1, 2, 0),
                 -np.inf)
    e = np.exp(s - s.max(axis=2, keepdims=True))
    w = e / e.sum(axis=2, keepdims=True)
    h = states.data.reshape(steps, lanes, d).transpose(1, 0, 2)  # (B, T, d)
    out = Matrix((w @ h).reshape(-1, d))

    def backward():
        g = out.grad.reshape(lanes, -1, d)
        gw = g @ h.transpose(0, 2, 1)
        gs = w * (gw - (gw * w).sum(axis=2, keepdims=True))
        scores.accumulate(gs.transpose(2, 0, 1).reshape(steps * lanes, -1))
        states.accumulate((w.transpose(0, 2, 1) @ g).transpose(1, 0, 2).reshape(steps * lanes, d))

    ad.record("masked_attention", (scores, states), out, backward)
    return out, w


def attend(attn_proj: Matrix, attn_heads: Matrix, states: Matrix, mask: np.ndarray):
    """Score each state row with tanh(state @ attn_proj.T) @ attn_heads.T, then attend per lane.

    Returns (contexts (B*n_a, d_cell), weights (B, n_a, T)), as `masked_attention`.
    """
    scores = ad.matmul(ad.tanh(ad.matmul(states, ad.transpose(attn_proj))),
                       ad.transpose(attn_heads))
    return masked_attention(scores, states, mask)


def compose(contexts: Matrix, h_s: Matrix) -> Matrix:
    """concat(max over each lane's context rows, its recurrent summary), (B, 2*d_cell)."""
    return ad.concat_rows(ad.reduce_max_rows(contexts, h_s.rows), h_s)


def encode_sentence(params: EncoderParams, embeddings: Matrix, token_ids):
    """Full pipeline over one id sequence or a PAD-padded (B, T) batch: encode -> attend -> compose.

    Returns (representation (B, 2*d_cell), attention weights (B, n_a, T)), one row per lane.
    """
    ids = np.atleast_2d(np.asarray(token_ids, dtype=np.int64))
    states, h_s = encode(params, embeddings, ids)
    contexts, weights = attend(params.attn_proj, params.attn_heads, states, ids != PAD)
    return compose(contexts, h_s), weights
